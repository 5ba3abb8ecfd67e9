package bench_test

import (
	"reflect"
	"testing"

	"github.com/valueflow/usher/internal/bench"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/stats"
)

// The -stats extension of the -parallel contract: the pass-stats Runs and
// Counters columns are pure functions of the analyzed programs, so two
// sweeps over the same inputs at different worker counts must produce
// identical scrubbed snapshots (measurements zeroed, see stats.Scrub).

func TestFig10StatsDeterministicAcrossParallel(t *testing.T) {
	profiles := subset(t, "mcf", "equake")

	serial := stats.New()
	if _, err := bench.Fig10(profiles, passes.O0IM, 1, serial); err != nil {
		t.Fatal(err)
	}
	par := stats.New()
	if _, err := bench.Fig10(profiles, passes.O0IM, 4, par); err != nil {
		t.Fatal(err)
	}

	a := stats.Scrub(serial.Snapshot())
	b := stats.Scrub(par.Snapshot())
	if len(a) == 0 {
		t.Fatal("observed sweep recorded no pass stats")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("pass stats differ between -parallel 1 and -parallel 4:\nserial:   %+v\nparallel: %+v", a, b)
	}
}

func TestTable1StatsDeterministicAcrossParallel(t *testing.T) {
	serial := stats.New()
	if _, err := bench.Table1(1, serial); err != nil {
		t.Fatal(err)
	}
	par := stats.New()
	if _, err := bench.Table1(4, par); err != nil {
		t.Fatal(err)
	}
	a := stats.Scrub(serial.Snapshot())
	b := stats.Scrub(par.Snapshot())
	if !reflect.DeepEqual(a, b) {
		t.Errorf("table1 pass stats differ between -parallel 1 and -parallel 4:\nserial:   %+v\nparallel: %+v", a, b)
	}
}

// TestObservedMatchesUnobserved: threading a collector through a sweep
// must not change any reported number.
func TestObservedMatchesUnobserved(t *testing.T) {
	profiles := subset(t, "mcf")
	plain, err := bench.Fig10(profiles, passes.O0IM, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := bench.Fig10(profiles, passes.O0IM, 1, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	scrub := func(rows []bench.OverheadRow) {
		for i := range rows {
			for j := range rows[i].Runs {
				rows[i].Runs[j].WallSec = 0
			}
		}
	}
	scrub(plain)
	scrub(observed)
	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("observed sweep changed results:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
}
