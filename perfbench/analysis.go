package main

import (
	"fmt"
	"time"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/ast"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/pipeline"
)

// planSpecs is the plan specification behind each configuration. The
// traced run requests plans from the artifact store directly, one pass
// per call, so it needs the specs usher.Session.Analyze uses;
// TestPlanSpecsMatchSession keeps the two in step.
var planSpecs = map[usher.Config]pipeline.PlanSpec{
	usher.ConfigMSan:        {Name: "MSan", Full: true},
	usher.ConfigUsherTL:     {Name: "UsherTL", TopLevelOnly: true, MemoryFull: true},
	usher.ConfigUsherTLAT:   {Name: "UsherTL+AT"},
	usher.ConfigUsherOptI:   {Name: "UsherOptI", OptI: true},
	usher.ConfigUsherFull:   {Name: "Usher", OptI: true, OptII: true},
	usher.ConfigUsherOptIII: {Name: "Usher+OptIII", OptI: true, OptII: true, OptIII: true},
}

// opMetrics sums one operation's figures; series.addOp files them under
// the operation once it ends.
type opMetrics map[string]float64

func (s series) addOp(op string, m opMetrics) {
	for k, v := range m {
		s.add(k, op, v)
	}
}

// compileSource is the untraced frontend: pipeline.Compile plus the
// O0+IM level, as usherc runs it.
func compileSource(file, src string) (*ir.Program, error) {
	prog, err := pipeline.Compile(file, src, nil)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	if err := pipeline.ApplyLevel(prog, passes.O0IM, nil); err != nil {
		return nil, fmt.Errorf("O0+IM: %w", err)
	}
	return prog, nil
}

// analyzeAll analyzes prog under the six configurations through one
// session, returned with the analyses in usher.ExtendedConfigs order.
func analyzeAll(prog *ir.Program) (*usher.Session, []*usher.Analysis, error) {
	sess := usher.NewSession(prog)
	ans := make([]*usher.Analysis, len(usher.ExtendedConfigs))
	for i, cfg := range usher.ExtendedConfigs {
		an, err := sess.Analyze(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("analyze %s: %w", cfg, err)
		}
		ans[i] = an
	}
	return sess, ans, nil
}

// stepper records traced calls of one operation: a span per call under
// the operation's root span, the call's duration under a time metric and
// its heap allocation under an allocation metric.
type stepper struct {
	tr   *tracer
	root int
	op   string
	m    opMetrics
}

// call runs fn as span name; timeMetric and allocMetric may be empty.
func (st *stepper) call(name, timeMetric, allocMetric string, fn func() error) error {
	a0 := readRuntime().allocBytes
	id := st.tr.begin(st.root, name, st.op)
	err := fn()
	d := st.tr.end(id)
	a1 := readRuntime().allocBytes
	if timeMetric != "" {
		st.m[timeMetric] += d
	}
	if allocMetric != "" {
		st.m[allocMetric] += float64(a1-a0) / mib
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// tracedCompile runs the frontend and the O0+IM level, one pass group
// per call.
func (st *stepper) tracedCompile(file, src string) (*ir.Program, error) {
	var parsed *ast.Program
	var prog *ir.Program
	var err error
	st.then(&err, "frontend.parse", "frontend.parse_s", "frontend.alloc_mb", func() (e error) {
		parsed, e = pipeline.ParseSource(file, src, "", nil)
		return e
	})
	st.then(&err, "frontend.lower", "frontend.lower_s", "frontend.alloc_mb", func() (e error) {
		prog, e = pipeline.CompileUnit(parsed, "", nil)
		return e
	})
	st.then(&err, "passes", "passes.s", "", func() error {
		return pipeline.ApplyLevel(prog, passes.O0IM, nil)
	})
	if err != nil {
		return nil, err
	}
	st.m["frontend.instrs"] += float64(countInstrs(prog))
	return prog, nil
}

// then runs call unless an earlier call of the chain failed.
func (st *stepper) then(err *error, name, timeMetric, allocMetric string, fn func() error) {
	if *err == nil {
		*err = st.call(name, timeMetric, allocMetric, fn)
	}
}

// tracedAnalyze materializes every artifact the six configurations need
// through a fresh artifact store, in dependency order, so that each call
// runs exactly one pass. It returns the plans in usher.ExtendedConfigs
// order.
func (st *stepper) tracedAnalyze(prog *ir.Program) ([]*pipeline.PlanResult, *pipeline.Store, error) {
	s := pipeline.NewStore(prog, nil)
	var err error
	st.then(&err, "pointer", "pointer.s", "", func() error {
		pa, err := s.Pointer()
		if err == nil {
			st.m["pointer.constraints"] += float64(pa.Stats.Constraints)
		}
		return err
	})
	st.then(&err, "memssa", "memssa.s", "memssa.alloc_mb", func() error {
		_, err := s.MemSSA()
		return err
	})
	for _, tl := range []bool{false, true} {
		st.then(&err, "vfg.build", "vfg.build_s", "vfg.alloc_mb", func() error {
			g, err := s.Graph(tl)
			if err == nil {
				st.m["vfg.nodes"] += float64(len(g.Nodes))
			}
			return err
		})
		st.then(&err, "vfg.resolve", "vfg.resolve_s", "vfg.alloc_mb", func() error {
			gm, err := s.Gamma(tl)
			if err == nil {
				st.m["vfg.bottom"] += float64(gm.BottomCount())
			}
			return err
		})
	}
	st.then(&err, "vfgopt", "vfgopt.s", "", func() error {
		o2, err := s.OptII()
		if err == nil {
			st.m["vfgopt.redirected"] += float64(o2.Redirected)
		}
		return err
	})
	plans := make([]*pipeline.PlanResult, len(usher.ExtendedConfigs))
	for i, cfg := range usher.ExtendedConfigs {
		spec, ok := planSpecs[cfg]
		if !ok && err == nil {
			err = fmt.Errorf("no plan specification for configuration %s", cfg)
		}
		st.then(&err, "instrument", "instrument.s", "", func() (e error) {
			plans[i], e = s.Plan(spec)
			return e
		})
	}
	if err != nil {
		return nil, nil, err
	}
	st.m["instrument.usher_items"] += float64(plans[indexOf(usher.ConfigUsherFull)].Plan.StaticStats().Items)
	return plans, s, nil
}

// indexOf is cfg's position in usher.ExtendedConfigs.
func indexOf(cfg usher.Config) int {
	for i, c := range usher.ExtendedConfigs {
		if c == cfg {
			return i
		}
	}
	panic(fmt.Sprintf("configuration %s is not in usher.ExtendedConfigs", cfg))
}

func countInstrs(prog *ir.Program) int {
	n := 0
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// gcMetrics files the Go runtime's GC work between two readings.
func gcMetrics(m opMetrics, d rtSample) {
	m["gc.cpu_s"] += d.gcCPU
	m["gc.cycles"] += float64(d.gcCycles)
}

// since is time.Since in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
