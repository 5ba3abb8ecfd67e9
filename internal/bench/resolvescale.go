package bench

import (
	"crypto/sha256"
	"fmt"
	"io"
	"time"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/module"
	"github.com/valueflow/usher/internal/vfgsum"
	"github.com/valueflow/usher/internal/workload"
)

// This file is the -resolve-scale driver: the measurement harness
// behind BENCH_resolve.json, pitting the dense Γ resolver
// (vfg.Resolve) against the Opt IV summary-based resolver
// (internal/vfgsum) over the resolve-stress XL profiles and the
// multi-file module projects.
//
// Every row measures the full resolution workload a session pays — Γ
// over both graph variants plus the Opt II cut re-resolution — through
// Session.PrewarmResolve. Graph construction (pointer solve, memory
// SSA, VFG build) is prewarmed untimed so the timings isolate
// resolution. The dense leg runs sequentially; each summary leg runs
// with the condensation's worker count and the prewarm's config
// parallelism set to the swept value. Each leg builds a fresh program:
// both generators are deterministic, so every leg resolves the
// identical graph.
//
// Wall-clock numbers are measurements; the Identical boolean is a
// contract. Every leg's Γ bit vectors (both variants), full-Usher plan
// fingerprint and Opt II/III statistics are hashed, and any divergence
// from the dense leg is a hard error — the speedup table is only worth
// committing if the results are bit-identical.

// moduleProjects are the module-project rows.
var moduleProjects = []workload.ModuleProject{workload.DefaultModuleProject, workload.WideModuleProject}

func toFiles(mf []workload.ModuleFile) []module.File {
	out := make([]module.File, len(mf))
	for i, f := range mf {
		out[i] = module.File{Name: f.Name, Source: f.Source}
	}
	return out
}

// ResolveScaleWorkerCounts is the default summary-leg sweep.
var ResolveScaleWorkerCounts = []int{1, 2, 4}

// ResolveTiming is one resolution leg's wall time.
type ResolveTiming struct {
	// Mode is "dense" (sequential vfg.Resolve baseline) or "summary"
	// (Opt IV condensation + sparse resolution).
	Mode string `json:"mode"`
	// Workers is the summary leg's worker count (condensation and
	// per-config prewarm parallelism); 0 for the dense baseline.
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	// Speedup is dense-seconds / this-seconds (1.0 for the dense row).
	Speedup float64 `json:"speedup_vs_dense"`
}

// ResolveRow is the dense-vs-summary result for one profile.
type ResolveRow struct {
	Profile string `json:"profile"`
	// Kind is "xl" (IR-level resolve-stress generator) or "modules"
	// (multi-file module project).
	Kind string `json:"kind"`
	// Nodes is the full VFG's node count; Supernodes/Ports describe the
	// condensed graph the summary legs resolved over.
	Nodes      int `json:"nodes"`
	Supernodes int `json:"supernodes"`
	Ports      int `json:"ports"`
	// ChecksElided is the full-Usher configuration's Opt II result,
	// identical on every leg.
	ChecksElided int             `json:"checks_elided"`
	Timings      []ResolveTiming `json:"timings"`
	// Identical records that every summary leg's Γ bits, plan
	// fingerprint and optimization statistics matched the dense leg.
	// Must always be true.
	Identical bool `json:"identical"`
}

// ResolveScaleResult is the -resolve-scale section of the JSON report.
type ResolveScaleResult struct {
	WorkerCounts []int        `json:"worker_counts"`
	Rows         []ResolveRow `json:"rows"`
}

// ResolveScale runs the resolution-scaling harness over the
// resolve-stress XL profiles and the module projects.
func ResolveScale(workerCounts []int) (*ResolveScaleResult, error) {
	if len(workerCounts) == 0 {
		workerCounts = ResolveScaleWorkerCounts
	}
	res := &ResolveScaleResult{WorkerCounts: workerCounts}
	for _, p := range workload.ResolveProfiles {
		p := p
		row, err := resolveScaleRow(p.Name, "xl", workerCounts, func() (*ir.Program, error) {
			return workload.BuildXL(p), nil
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	for _, mp := range moduleProjects {
		files := toFiles(mp.GenerateModules())
		name := fmt.Sprintf("%s-%d", mp.Name, mp.NumModules())
		row, err := resolveScaleRow(name, "modules", workerCounts, func() (*ir.Program, error) {
			r, err := module.Build(files, module.Options{Cache: module.NewCache(256 << 20), Parallel: 1})
			if err != nil {
				return nil, err
			}
			return r.Prog, nil
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// resolveLeg is one timed resolution run plus its untimed parity data.
type resolveLeg struct {
	seconds float64
	sig     [sha256.Size]byte
	nodes   int
	elided  int
}

// resolveScaleRow times one profile's dense baseline and every summary
// worker count, hard-failing on any result divergence.
func resolveScaleRow(name, kind string, workerCounts []int, build func() (*ir.Program, error)) (ResolveRow, error) {
	row := ResolveRow{Profile: name, Kind: kind, Identical: true}

	leg := func(summary bool, workers int) (resolveLeg, *usher.Session, error) {
		prog, err := build()
		if err != nil {
			return resolveLeg{}, nil, err
		}
		sess := usher.NewSession(prog)
		if err := sess.PrewarmGraphs(); err != nil {
			return resolveLeg{}, nil, err
		}
		defer func(e bool, w int) { vfgsum.Enabled, vfgsum.Workers = e, w }(vfgsum.Enabled, vfgsum.Workers)
		vfgsum.Enabled, vfgsum.Workers = summary, workers
		par := workers
		if !summary {
			par = 1
		}
		start := time.Now()
		if err := sess.PrewarmResolve(par); err != nil {
			return resolveLeg{}, nil, err
		}
		lr := resolveLeg{seconds: time.Since(start).Seconds()}
		lr.sig, lr.nodes, lr.elided, err = resolveSignature(sess)
		return lr, sess, err
	}

	dense, _, err := leg(false, 0)
	if err != nil {
		return row, err
	}
	row.Nodes = dense.nodes
	row.ChecksElided = dense.elided
	row.Timings = []ResolveTiming{{Mode: "dense", Workers: 0, Seconds: dense.seconds, Speedup: 1}}

	for _, w := range workerCounts {
		sl, sess, err := leg(true, w)
		if err != nil {
			return row, err
		}
		if sl.sig != dense.sig {
			row.Identical = false
		}
		row.Timings = append(row.Timings, ResolveTiming{
			Mode:    "summary",
			Workers: w,
			Seconds: sl.seconds,
			Speedup: dense.seconds / sl.seconds,
		})
		sum, err := sess.Summaries(false)
		if err != nil {
			return row, err
		}
		row.Supernodes = sum.Stats.Supernodes
		row.Ports = sum.Stats.Ports
	}
	if !row.Identical {
		return row, fmt.Errorf("bench: %s: summary resolution diverges from the dense resolver", name)
	}
	return row, nil
}

// resolveSignature hashes everything resolution feeds downstream: both
// graph variants' Γ ⊥ bit vectors, the full-Usher plan fingerprint and
// its Opt II/III statistics. Two legs agree exactly when their
// signatures agree.
func resolveSignature(sess *usher.Session) (sig [sha256.Size]byte, nodes, elided int, err error) {
	h := sha256.New()
	for _, tl := range []bool{false, true} {
		g, gm, gerr := sess.Graph(tl)
		if gerr != nil {
			return sig, 0, 0, gerr
		}
		if !tl {
			nodes = len(g.Nodes)
		}
		fmt.Fprintf(h, "gamma tl=%v nodes=%d bottom=%d words", tl, len(g.Nodes), gm.BottomCount())
		for _, w := range gm.BottomBits().Words() {
			fmt.Fprintf(h, " %x", w)
		}
		fmt.Fprintln(h)
	}
	a, aerr := sess.Analyze(usher.ConfigUsherFull)
	if aerr != nil {
		return sig, 0, 0, aerr
	}
	fmt.Fprintf(h, "plan %s redirected=%d elided=%d mfcs=%d\n",
		a.Plan.Fingerprint(), a.Redirected, a.ChecksElided, a.MFCsSimplified)
	h.Sum(sig[:0])
	return sig, nodes, a.ChecksElided, nil
}

// WriteResolveScale renders the resolution-scaling results as a text
// table.
func WriteResolveScale(w io.Writer, res *ResolveScaleResult) {
	fmt.Fprintln(w, "summary-based Γ resolution (Opt IV; dense sequential resolver is the baseline):")
	fmt.Fprintf(w, "  %-18s %-8s %9s %11s %7s %10s", "profile", "kind", "nodes", "supernodes", "elided", "dense(s)")
	for _, wc := range res.WorkerCounts {
		fmt.Fprintf(w, " %14s", fmt.Sprintf("summary w=%d", wc))
	}
	fmt.Fprintln(w)
	for _, row := range res.Rows {
		fmt.Fprintf(w, "  %-18s %-8s %9d %11d %7d %10.3f",
			row.Profile, row.Kind, row.Nodes, row.Supernodes, row.ChecksElided, row.Timings[0].Seconds)
		for _, t := range row.Timings[1:] {
			fmt.Fprintf(w, " %7.3fs/%.2fx", t.Seconds, t.Speedup)
		}
		fmt.Fprintf(w, "  identical=%v\n", row.Identical)
	}
}
