package bench_test

import (
	"reflect"
	"testing"

	"github.com/valueflow/usher/internal/bench"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/workload"
)

// The -parallel N / -parallel 1 contract: every reported number is
// identical regardless of worker count; only the measured wall-clock
// and allocation columns may differ. These tests enforce the contract
// at the API level, which is what cmd/usher-bench prints.

func subset(t *testing.T, names ...string) []workload.Profile {
	t.Helper()
	out := make([]workload.Profile, 0, len(names))
	for _, n := range names {
		p, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("no workload %s", n)
		}
		out = append(out, p)
	}
	return out
}

func TestFig10ParallelMatchesSerial(t *testing.T) {
	profiles := subset(t, "mcf", "equake")
	serial, err := bench.Fig10(profiles, passes.O0IM, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := bench.Fig10(profiles, passes.O0IM, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	// WallSec is a measurement, not a result; everything else must match.
	scrub := func(rows []bench.OverheadRow) {
		for i := range rows {
			for j := range rows[i].Runs {
				rows[i].Runs[j].WallSec = 0
			}
		}
	}
	scrub(serial)
	scrub(par)
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("fig10 rows differ between -parallel 1 and -parallel 4:\nserial: %+v\nparallel: %+v", serial, par)
	}
}

func TestTable1ParallelMatchesSerial(t *testing.T) {
	serial, err := bench.Table1(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := bench.Table1(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(par) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		a, b := serial[i], par[i]
		a.TimeSec, b.TimeSec = 0, 0
		a.MemMB, b.MemMB = 0, 0
		if a != b {
			t.Errorf("table1 row %s differs between -parallel 1 and -parallel 4:\nserial: %+v\nparallel: %+v", serial[i].Name, a, b)
		}
	}
}

func TestFig11ParallelMatchesSerial(t *testing.T) {
	serial, err := bench.Fig11(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := bench.Fig11(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("fig11 rows differ between -parallel 1 and -parallel 4:\nserial: %+v\nparallel: %+v", serial, par)
	}
}

func TestAblationsParallelMatchesSerial(t *testing.T) {
	serial, err := bench.Ablations(workload.Profiles, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := bench.Ablations(workload.Profiles, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("ablation rows differ between -parallel 1 and -parallel 4:\nserial: %+v\nparallel: %+v", serial, par)
	}
}
