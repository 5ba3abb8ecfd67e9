package bench_test

import (
	"strings"
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/bench"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/pool"
	"github.com/valueflow/usher/internal/workload"
)

func prepareOne(t *testing.T, name string) *bench.Compiled {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	c, err := bench.Prepare(p, passes.O0IM, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestOverheadModel(t *testing.T) {
	c := prepareOne(t, "gzip")
	an := usher.MustAnalyze(c.Prog, usher.ConfigMSan)
	res, err := an.Run(usher.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oh := bench.Overhead(res)
	if oh < 100 || oh > 600 {
		t.Errorf("MSan overhead = %.0f%%, want a few-hundred-percent slowdown", oh)
	}
}

func TestFig10ShapeOnSubset(t *testing.T) {
	// The full suite is exercised by the benchmarks; here, verify the
	// ordering invariant cheaply on two benchmarks.
	for _, name := range []string{"mcf", "parser"} {
		c := prepareOne(t, name)
		var prev float64 = 1e18
		for _, cfg := range usher.Configs {
			an := usher.MustAnalyze(c.Prog, cfg)
			res, err := an.Run(usher.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			oh := bench.Overhead(res)
			if oh > prev+1e-9 {
				t.Errorf("%s: %v overhead %.1f%% exceeds previous config's %.1f%%", name, cfg, oh, prev)
			}
			prev = oh
			if name == "parser" && cfg == usher.ConfigUsherFull && len(res.ShadowWarnings) == 0 {
				t.Error("parser's planted bug missed by Usher")
			}
		}
	}
}

func TestTable1RowSanity(t *testing.T) {
	c := prepareOne(t, "mcf")
	rows, err := bench.Table1(pool.DefaultParallelism(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(rows))
	}
	for _, r := range rows {
		if r.VarTL == 0 || r.VFGNodes == 0 {
			t.Errorf("%s: empty stats %+v", r.Name, r)
		}
		if r.PctF < 0 || r.PctF > 100 || r.PctB < 0 || r.PctB > 100 {
			t.Errorf("%s: percentage out of range: %+v", r.Name, r)
		}
		if r.PctSU+r.PctWU > 100.001 {
			t.Errorf("%s: SU+WU = %.1f > 100", r.Name, r.PctSU+r.PctWU)
		}
	}
	_ = c
}

func TestRenderers(t *testing.T) {
	rows := []bench.Table1Row{{Name: "demo", KLOC: 1.2, VarTL: 10, VFGNodes: 20, PctF: 30}}
	var sb strings.Builder
	bench.WriteTable1(&sb, rows)
	if !strings.Contains(sb.String(), "demo") {
		t.Error("table1 renderer dropped the row")
	}

	orows := []bench.OverheadRow{{
		Name:        "demo",
		NativeSteps: 100,
		Runs: []bench.ConfigRun{
			{Config: usher.ConfigMSan, OverheadPct: 300},
			{Config: usher.ConfigUsherTL, OverheadPct: 270},
			{Config: usher.ConfigUsherTLAT, OverheadPct: 200},
			{Config: usher.ConfigUsherOptI, OverheadPct: 180},
			{Config: usher.ConfigUsherFull, OverheadPct: 120},
		},
	}}
	sb.Reset()
	bench.WriteFig10(&sb, passes.O0IM, orows)
	if !strings.Contains(sb.String(), "300") {
		t.Error("fig10 renderer dropped the data")
	}

	srows := []bench.StaticRow{{
		Name:      "demo",
		PropsPct:  []float64{100, 57, 32, 22, 16},
		ChecksPct: []float64{100, 72, 44, 44, 23},
	}}
	sb.Reset()
	bench.WriteFig11(&sb, srows)
	if !strings.Contains(sb.String(), "57") {
		t.Error("fig11 renderer dropped the data")
	}
}

func TestAverages(t *testing.T) {
	rows := []float64{1, 2, 3}
	avg := bench.Averages(rows, func(v float64) float64 { return v })
	if avg != 2 {
		t.Errorf("avg = %f, want 2", avg)
	}
	if bench.Averages(nil, func(v float64) float64 { return v }) != 0 {
		t.Error("empty average should be 0")
	}
}

func TestAblationRow(t *testing.T) {
	p, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("no workload mcf")
	}
	rows, err := bench.Ablations([]workload.Profile{p}, 1)
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	if row.BottomCI < row.BottomCS {
		t.Errorf("context-insensitive ⊥ %d below sensitive %d", row.BottomCI, row.BottomCS)
	}
	if row.BottomNoSemi < row.BottomCS {
		t.Errorf("no-semistrong ⊥ %d below baseline %d", row.BottomNoSemi, row.BottomCS)
	}
	if row.ChecksNoCloning < row.ChecksFull {
		t.Errorf("no-cloning checks %d below cloned %d", row.ChecksNoCloning, row.ChecksFull)
	}
	if row.MergedAway <= 0 || row.MergedAway >= row.VFGNodes {
		t.Errorf("merged-away = %d of %d nodes", row.MergedAway, row.VFGNodes)
	}
	var sb strings.Builder
	bench.WriteAblations(&sb, []bench.AblationRow{row})
	if !strings.Contains(sb.String(), "mcf") {
		t.Error("ablation renderer dropped the row")
	}
}

func TestFig11OnSuiteSubsetMonotone(t *testing.T) {
	rows, err := bench.Fig11(pool.DefaultParallelism(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for i := 1; i < len(r.PropsPct); i++ {
			if r.PropsPct[i] > r.PropsPct[i-1]+1e-9 {
				t.Errorf("%s: props pct not monotone: %v", r.Name, r.PropsPct)
			}
			if r.ChecksPct[i] > r.ChecksPct[i-1]+1e-9 {
				t.Errorf("%s: checks pct not monotone: %v", r.Name, r.ChecksPct)
			}
		}
	}
}
