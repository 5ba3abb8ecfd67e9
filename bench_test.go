// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// per table/figure, plus micro-benchmarks for the analysis phases.
//
//	go test -bench=. -benchmem
//
// BenchmarkTable1Stats      — Table 1 (static analysis statistics, O0+IM)
// BenchmarkFig10Overhead    — Figure 10 (dynamic slowdowns per config)
// BenchmarkFig11StaticCounts— Figure 11 (static instrumentation counts)
// BenchmarkOptLevelO1/O2    — §4.6 (slowdowns under O1/O2)
// BenchmarkAnalysisCost     — §4.4 (whole-program analysis cost)
package usher_test

import (
	"fmt"
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/bench"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/pool"
	"github.com/valueflow/usher/internal/vfg"
	"github.com/valueflow/usher/internal/workload"
)

// mediumProfile is a representative benchmark for per-phase benchmarks.
func mediumProfile() workload.Profile {
	p, _ := workload.ByName("crafty")
	return p
}

// BenchmarkTable1Stats regenerates the Table 1 statistics for the whole
// suite.
func BenchmarkTable1Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1(pool.DefaultParallelism(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 15 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig10Overhead regenerates Figure 10: per-benchmark dynamic
// slowdowns of all five configurations under O0+IM. The averages are
// reported as custom metrics.
func BenchmarkFig10Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig10(workload.Profiles, passes.O0IM, pool.DefaultParallelism(), nil)
		if err != nil {
			b.Fatal(err)
		}
		for j, cfg := range usher.Configs {
			j := j
			avg := bench.Averages(rows, func(r bench.OverheadRow) float64 { return r.Runs[j].OverheadPct })
			b.ReportMetric(avg, fmt.Sprintf("%%overhead-%s", cfg))
		}
	}
}

// BenchmarkFig10PerBenchmark runs the Figure 10 measurement for each
// workload separately.
func BenchmarkFig10PerBenchmark(b *testing.B) {
	for _, p := range workload.Profiles {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			c, err := bench.Prepare(p, passes.O0IM, nil)
			if err != nil {
				b.Fatal(err)
			}
			an := usher.MustAnalyze(c.Prog, usher.ConfigUsherFull)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := an.Run(usher.RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(bench.Overhead(res), "%overhead-usher")
			}
		})
	}
}

// BenchmarkFig11StaticCounts regenerates Figure 11.
func BenchmarkFig11StaticCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig11(pool.DefaultParallelism(), nil)
		if err != nil {
			b.Fatal(err)
		}
		for j := 1; j < len(usher.Configs); j++ {
			j := j
			b.ReportMetric(bench.Averages(rows, func(r bench.StaticRow) float64 { return r.PropsPct[j] }),
				fmt.Sprintf("%%props-%s", usher.Configs[j]))
		}
	}
}

// BenchmarkOptLevelO1 and BenchmarkOptLevelO2 regenerate §4.6.
func BenchmarkOptLevelO1(b *testing.B) { benchOptLevel(b, passes.O1) }

// BenchmarkOptLevelO2 is §4.6 under O2.
func BenchmarkOptLevelO2(b *testing.B) { benchOptLevel(b, passes.O2) }

func benchOptLevel(b *testing.B, level passes.Level) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig10(workload.Profiles, level, pool.DefaultParallelism(), nil)
		if err != nil {
			b.Fatal(err)
		}
		msan := bench.Averages(rows, func(r bench.OverheadRow) float64 { return r.Runs[0].OverheadPct })
		ush := bench.Averages(rows, func(r bench.OverheadRow) float64 {
			return r.Runs[len(r.Runs)-1].OverheadPct
		})
		b.ReportMetric(msan, "%overhead-msan")
		b.ReportMetric(ush, "%overhead-usher")
	}
}

// BenchmarkAnalysisCost measures the whole static pipeline (§4.4: the
// paper reports under 10 s and 600 MB on average for SPEC).
func BenchmarkAnalysisCost(b *testing.B) {
	c, err := bench.Prepare(mediumProfile(), passes.O0IM, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		usher.MustAnalyze(c.Prog, usher.ConfigUsherFull)
	}
}

// Phase micro-benchmarks.

func BenchmarkPointerAnalysis(b *testing.B) {
	c, err := bench.Prepare(mediumProfile(), passes.O0IM, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pointer.Analyze(c.Prog)
	}
}

func BenchmarkMemorySSA(b *testing.B) {
	c, err := bench.Prepare(mediumProfile(), passes.O0IM, nil)
	if err != nil {
		b.Fatal(err)
	}
	pa := pointer.Analyze(c.Prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memssa.Build(c.Prog, pa)
	}
}

func BenchmarkVFGBuildAndResolve(b *testing.B) {
	c, err := bench.Prepare(mediumProfile(), passes.O0IM, nil)
	if err != nil {
		b.Fatal(err)
	}
	pa := pointer.Analyze(c.Prog)
	mem := memssa.Build(c.Prog, pa)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := vfg.Build(c.Prog, pa, mem, vfg.Options{})
		vfg.Resolve(g)
	}
}

func BenchmarkInterpNative(b *testing.B) {
	c, err := bench.Prepare(mediumProfile(), passes.O0IM, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := usher.RunNative(c.Prog, usher.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpMSan(b *testing.B) { benchInterp(b, usher.ConfigMSan) }

func BenchmarkInterpUsher(b *testing.B) { benchInterp(b, usher.ConfigUsherFull) }

func benchInterp(b *testing.B, cfg usher.Config) {
	c, err := bench.Prepare(mediumProfile(), passes.O0IM, nil)
	if err != nil {
		b.Fatal(err)
	}
	an := usher.MustAnalyze(c.Prog, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.Run(usher.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks for the design choices DESIGN.md calls out.

// BenchmarkAblationSemiStrong measures the static savings attributable to
// semi-strong updates alone.
func BenchmarkAblationSemiStrong(b *testing.B) {
	c, err := bench.Prepare(mediumProfile(), passes.O0IM, nil)
	if err != nil {
		b.Fatal(err)
	}
	pa := pointer.Analyze(c.Prog)
	mem := memssa.Build(c.Prog, pa)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, noSemi := range []bool{false, true} {
			g := vfg.Build(c.Prog, pa, mem, vfg.Options{NoSemiStrong: noSemi})
			gm := vfg.Resolve(g)
			suffix := "with-semi"
			if noSemi {
				suffix = "no-semi"
			}
			b.ReportMetric(float64(gm.BottomCount()), "bottom-nodes-"+suffix)
		}
	}
}
