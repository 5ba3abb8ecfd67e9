package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/instrument"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/pool"
	"github.com/valueflow/usher/internal/ssa"
	"github.com/valueflow/usher/internal/vfg"
	"github.com/valueflow/usher/internal/workload"
)

// AblationRow quantifies the contribution of each design choice on one
// benchmark: 1-callsite context sensitivity in definedness resolution,
// semi-strong updates at stores, heap cloning via allocation-wrapper
// inlining, and access-equivalent node merging.
type AblationRow struct {
	Name string
	// BottomCS / BottomCI: ⊥ node counts with context-sensitive vs
	// context-insensitive resolution.
	BottomCS, BottomCI int
	// BottomNoSemi: ⊥ nodes with semi-strong updates disabled.
	BottomNoSemi int
	// ChecksFull / ChecksNoCloning: Usher's static checks with and
	// without allocation-wrapper inlining (heap cloning).
	ChecksFull, ChecksNoCloning int
	// ChecksOptIII: static checks with the Opt III extension (dominated
	// same-value check elimination) enabled on top of Usher.
	ChecksOptIII int
	// VFGNodes / MergedAway: graph size and nodes removed by
	// access-equivalence merging.
	VFGNodes, MergedAway int
}

// Ablations measures every design-choice ablation over the suite with
// the default parallelism.
func Ablations() ([]AblationRow, error) { return AblationsParallel(pool.DefaultParallelism()) }

// AblationsParallel runs the ablation study using up to parallel workers
// across profiles. Each row builds its own graphs, so rows are fully
// independent.
func AblationsParallel(parallel int) ([]AblationRow, error) {
	profiles := workload.Profiles
	rows := make([]AblationRow, len(profiles))
	err := pool.ForEach(parallel, len(profiles), func(i int) error {
		row, err := ablationRow(profiles[i])
		if err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// AblationFor measures the ablations for a single named benchmark.
func AblationFor(name string) (AblationRow, error) {
	p, ok := workload.ByName(name)
	if !ok {
		return AblationRow{}, fmt.Errorf("unknown workload %q", name)
	}
	return ablationRow(p)
}

func ablationRow(p workload.Profile) (AblationRow, error) {
	row := AblationRow{Name: p.Name}

	// Baseline: full O0+IM pipeline.
	c, err := Prepare(p, passes.O0IM)
	if err != nil {
		return row, err
	}
	pa := pointer.Analyze(c.Prog)
	mem := memssa.Build(c.Prog, pa)
	g := vfg.Build(c.Prog, pa, mem, vfg.Options{})
	row.VFGNodes = len(g.Nodes)

	cs := vfg.Resolve(g)
	row.BottomCS = cs.BottomCount()
	ci := vfg.ResolveWith(g, vfg.ResolveOptions{ContextInsensitive: true})
	row.BottomCI = ci.BottomCount()

	gNoSemi := vfg.Build(c.Prog, pa, mem, vfg.Options{NoSemiStrong: true})
	row.BottomNoSemi = vfg.Resolve(gNoSemi).BottomCount()

	eq := vfg.ComputeAccessEquivalence(g)
	row.MergedAway = eq.Merged(g)

	full := instrument.Guided("usher", g, cs, instrument.GuidedOptions{OptI: true, OptII: true})
	row.ChecksFull = full.Plan.StaticStats().Checks
	ext := instrument.Guided("usher+3", g, cs, instrument.GuidedOptions{OptI: true, OptII: true, OptIII: true})
	row.ChecksOptIII = ext.Plan.StaticStats().Checks

	// No heap cloning: recompile without allocation-wrapper inlining.
	prog2, err := usher.Compile(p.Name+".c", c.Source)
	if err != nil {
		return row, err
	}
	passes.InlineFunctionPointerArgs(prog2)
	ssa.Promote(prog2)
	for _, fn := range prog2.Funcs {
		if fn.HasBody {
			ir.ComputeCFG(fn)
		}
	}
	an2, err := usher.Analyze(prog2, usher.ConfigUsherFull)
	if err != nil {
		return row, err
	}
	row.ChecksNoCloning = an2.StaticStats().Checks
	return row, nil
}

// WriteAblations renders the ablation study.
func WriteAblations(w io.Writer, rows []AblationRow) {
	fmt.Fprintln(w, "Design-choice ablations (⊥ = possibly-undefined VFG nodes; lower is more precise)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\tVFG\t⊥ ctx-sens\t⊥ ctx-insens\t⊥ no-semistrong\tchecks\tchecks no-cloning\tchecks opt3\tmerged-away")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Name, r.VFGNodes, r.BottomCS, r.BottomCI, r.BottomNoSemi,
			r.ChecksFull, r.ChecksNoCloning, r.ChecksOptIII, r.MergedAway)
	}
	fmt.Fprintf(tw, "average\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n",
		Averages(rows, func(r AblationRow) float64 { return float64(r.VFGNodes) }),
		Averages(rows, func(r AblationRow) float64 { return float64(r.BottomCS) }),
		Averages(rows, func(r AblationRow) float64 { return float64(r.BottomCI) }),
		Averages(rows, func(r AblationRow) float64 { return float64(r.BottomNoSemi) }),
		Averages(rows, func(r AblationRow) float64 { return float64(r.ChecksFull) }),
		Averages(rows, func(r AblationRow) float64 { return float64(r.ChecksNoCloning) }),
		Averages(rows, func(r AblationRow) float64 { return float64(r.ChecksOptIII) }),
		Averages(rows, func(r AblationRow) float64 { return float64(r.MergedAway) }),
	)
	tw.Flush()
}
