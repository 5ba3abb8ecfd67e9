package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/instrument"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/vfg"
	"github.com/valueflow/usher/internal/workload"
)

// bigInput is one big-graphs program with the facts its generator
// guarantees.
type bigInput struct {
	name string
	// src is the MiniC source of a frontend input; IR inputs have none
	// and are rebuilt by build before every analysis.
	src   string
	build func() *ir.Program
	facts []callFact
	// In resolve-xl every register of the bottomPrefix* worker bodies
	// (bottomRegs in all) carries the undefined value.
	bottomPrefix string
	bottomRegs   int
}

// bigInputs generates the three inputs in a seeded order: a MiniC
// program through the whole frontend, an IR call graph with wide
// indirect fan-out, and the Γ-resolution stress graph. Smoke mode uses
// each generator's smallest profile.
func bigInputs(smoke bool, seed int64) ([]bigInput, error) {
	large, xl, res := "solver-large", "solver-xl-medium", "resolve-xl"
	if smoke {
		large, xl, res = "solver-small", "solver-xl-small", "resolve-xl-small"
	}
	lp, ok1 := workload.LargeByName(large)
	xp, ok2 := workload.XLByName(xl)
	rp, ok3 := workload.XLByName(res)
	if !ok1 || !ok2 || !ok3 {
		return nil, fmt.Errorf("missing big-graphs profile among %s, %s, %s", large, xl, res)
	}
	ins := []bigInput{
		{
			name:  large,
			src:   workload.GenerateLarge(lp),
			facts: []callFact{{"dispatch_", lp.FPSites, "fptarget_", lp.FPTargets}},
		},
		{
			name:  xl,
			build: func() *ir.Program { return workload.BuildXL(xp) },
			facts: []callFact{{"dispatch_", xp.FPSites, "fptarget_", xp.FPTargets}},
		},
		{
			name:         res,
			build:        func() *ir.Program { return workload.BuildXL(rp) },
			facts:        []callFact{{"usite_", rp.UndefSites, "utarget_", rp.UndefTargets}},
			bottomPrefix: "utarget_",
			bottomRegs:   rp.UndefTargets * rp.UndefBodyLen,
		},
	}
	for _, in := range ins {
		if in.build != nil {
			in.build() // generation is part of set-up even though rounds rebuild
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
	return ins, nil
}

// analyzed is what the checks read from one input's analysis.
type analyzed struct {
	pa    *pointer.Result
	plans []*instrument.Plan // in usher.ExtendedConfigs order
	graph func(topLevelOnly bool) (*vfg.Graph, *vfg.Gamma, error)
}

func runBigGraphs(opts options, log *os.File) (*result, error) {
	var ins []bigInput
	setupS, err := setup(func() (err error) {
		ins, err = bigInputs(opts.smoke, opts.seed)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	s := series{}
	var o ops
	rounds := 0
	for start := time.Now(); moreRounds(since(start), rounds, opts.seconds); rounds++ {
		for _, in := range ins {
			m := opMetrics{}
			o.record(in.name, bigOp(in, tr, m))
			s.addOp(in.name, m)
		}
	}
	fmt.Fprintf(log, "big-graphs: %d inputs x %d rounds, seed %d\n", len(ins), rounds, opts.seed)
	opsPerS, opP50MS := opFigures(s.opMedians("op_s"))
	e2e := endToEnd(setupS, opsPerS, opP50MS)
	if !opts.trace {
		return o.finish(log, e2e), nil
	}
	printMetrics(log, "traced end-to-end", e2e)
	if err := tr.report(log, opts); err != nil {
		return nil, err
	}
	vals := s.values()
	vals["mem.peak_rss_mb"] = peakRSSMB()
	return o.finish(log, layerMetrics(vals)), nil
}

// bigOp compiles (MiniC input only) and analyzes one input under the six
// configurations, and returns the failed checks. Nothing is executed.
func bigOp(in bigInput, tr *tracer, m opMetrics) (failures []string) {
	defer func() {
		if r := recover(); r != nil {
			failures = append(failures, fmt.Sprintf("panic: %v", r))
		}
	}()
	var prog *ir.Program
	if in.build != nil {
		prog = in.build()
	}
	rt0 := collected()
	var a analyzed
	var err error
	if tr == nil {
		prog, a, err = bigUntraced(in, prog, m)
	} else {
		prog, a, err = bigTraced(in, prog, tr, m)
	}
	gcMetrics(m, readRuntime().sub(rt0))
	if err != nil {
		return []string{err.Error()}
	}
	return checkBig(in, prog, a)
}

func bigUntraced(in bigInput, prog *ir.Program, m opMetrics) (*ir.Program, analyzed, error) {
	t0 := time.Now()
	if prog == nil {
		var err error
		if prog, err = compileSource(in.name+".c", in.src); err != nil {
			return nil, analyzed{}, err
		}
	}
	sess, ans, err := analyzeAll(prog)
	if err != nil {
		return nil, analyzed{}, err
	}
	m["op_s"] = since(t0)
	a := analyzed{pa: ans[0].Pointer, graph: sess.Graph}
	for _, an := range ans {
		a.plans = append(a.plans, an.Plan)
	}
	return prog, a, nil
}

func bigTraced(in bigInput, prog *ir.Program, tr *tracer, m opMetrics) (*ir.Program, analyzed, error) {
	st := &stepper{tr: tr, root: tr.begin(0, "op", in.name), op: in.name, m: m}
	defer func() { m["op_s"] = tr.end(st.root) }()
	if prog == nil {
		var err error
		if prog, err = st.tracedCompile(in.name+".c", in.src); err != nil {
			return nil, analyzed{}, err
		}
	}
	plans, store, err := st.tracedAnalyze(prog)
	if err != nil {
		return nil, analyzed{}, err
	}
	pa, err := store.Pointer()
	if err != nil {
		return nil, analyzed{}, err
	}
	a := analyzed{pa: pa, graph: func(tl bool) (*vfg.Graph, *vfg.Gamma, error) {
		g, err := store.Graph(tl)
		if err != nil {
			return nil, nil, err
		}
		gm, err := store.Gamma(tl)
		return g, gm, err
	}}
	for _, pr := range plans {
		a.plans = append(a.plans, pr.Plan)
	}
	return prog, a, nil
}

// checkBig checks the generator's call-graph facts, that every guided
// plan checks a subset of MSan's sites, and resolve-xl's all-undefined
// worker bodies in both graph variants.
func checkBig(in bigInput, prog *ir.Program, a analyzed) []string {
	var out []string
	for _, f := range in.facts {
		out = append(out, checkCallFact(f, prog, a.pa)...)
	}
	msan := a.plans[indexOf(usher.ConfigMSan)]
	for i, cfg := range usher.ExtendedConfigs {
		if cfg != usher.ConfigMSan {
			out = append(out, checkGuidedSubset(cfg.String(), msan, a.plans[i])...)
		}
	}
	if in.bottomPrefix == "" {
		return out
	}
	for _, tl := range []bool{false, true} {
		variant := "full"
		if tl {
			variant = "top-level"
		}
		g, gm, err := a.graph(tl)
		if err != nil {
			return append(out, fmt.Sprintf("%s graph: %v", variant, err))
		}
		out = append(out, checkAllBottom(variant, in.bottomPrefix, in.bottomRegs, prog, g, gm)...)
	}
	return out
}
