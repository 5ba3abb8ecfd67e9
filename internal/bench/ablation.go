package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/passes"
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
	// VFGNodes / MergedAway: graph size and the nodes access-equivalence
	// merging would remove (resolution itself runs per node).
	VFGNodes, MergedAway int
}

// Ablations measures every design-choice ablation over profiles (the
// paper's suite is workload.Profiles), using up to parallel workers
// across profiles. Each row builds its own graphs, so rows are fully
// independent.
func Ablations(profiles []workload.Profile, parallel int) ([]AblationRow, error) {
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

func ablationRow(p workload.Profile) (AblationRow, error) {
	row := AblationRow{Name: p.Name}

	// Baseline: the full O0+IM pipeline. One session computes its
	// artifacts and the Usher and Usher+OptIII plans; only the ablated
	// variants below are built by hand.
	c, err := Prepare(p, passes.O0IM, nil)
	if err != nil {
		return row, err
	}
	sess := usher.NewSession(c.Prog)
	pa, mem, err := sess.Base()
	if err != nil {
		return row, err
	}
	g, cs, err := sess.Graph(false)
	if err != nil {
		return row, err
	}
	row.VFGNodes = len(g.Nodes)
	row.BottomCS = cs.BottomCount()
	ci := vfg.ResolveWith(g, vfg.ResolveOptions{ContextInsensitive: true})
	row.BottomCI = ci.BottomCount()

	gNoSemi := vfg.Build(c.Prog, pa, mem, vfg.Options{NoSemiStrong: true})
	row.BottomNoSemi = vfg.Resolve(gNoSemi).BottomCount()

	row.MergedAway = vfg.ComputeAccessEquivalence(g).Merged(g)

	full, err := sess.Analyze(usher.ConfigUsherFull)
	if err != nil {
		return row, err
	}
	row.ChecksFull = full.StaticStats().Checks
	ext, err := sess.Analyze(usher.ConfigUsherOptIII)
	if err != nil {
		return row, err
	}
	row.ChecksOptIII = ext.StaticStats().Checks

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
