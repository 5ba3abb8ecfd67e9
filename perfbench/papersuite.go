package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/interp"
	"github.com/valueflow/usher/internal/workload"
)

// The paper's cost model (Fig. 10): a shadow propagation costs 3.3 native
// operations and a check 1.5.
const (
	propCost  = 3.3
	checkCost = 1.5
)

// overheadPct is a guided run's cost-model overhead over its native
// steps, in percent.
func overheadPct(props, checks, steps int64) float64 {
	return 100 * (propCost*float64(props) + checkCost*float64(checks)) / float64(steps)
}

// paperProgram is one generated SPEC CPU2000 stand-in.
type paperProgram struct {
	name string
	file string
	src  string
	// bugLine is the line of the planted use of an undefined value, 0
	// when the generator planted none.
	bugLine int
}

// plantedUse is the statement of the parser profile's planted bug that
// reads the undefined value (workload's plantBug).
const plantedUse = "if (ppmatch(i))"

// paperProfiles are the workload's profiles: all 15, or in smoke mode two
// small ones, one with the planted bug.
func paperProfiles(smoke bool) []workload.Profile {
	if !smoke {
		return workload.Profiles
	}
	var out []workload.Profile
	for _, name := range []string{"art", "parser"} {
		p, _ := workload.ByName(name)
		p.Iters /= 10
		out = append(out, p)
	}
	return out
}

// paperInputs generates the programs in a seeded order.
func paperInputs(profiles []workload.Profile, seed int64) ([]paperProgram, error) {
	order := rand.New(rand.NewSource(seed)).Perm(len(profiles))
	progs := make([]paperProgram, len(profiles))
	for i, k := range order {
		p := profiles[k]
		src := workload.Generate(p)
		pp := paperProgram{name: p.Name, file: p.Name + ".c", src: src}
		if p.PlantBug {
			pp.bugLine = lineOf(src, plantedUse)
			if pp.bugLine == 0 {
				return nil, fmt.Errorf("%s: planted use %q not found in the generated source", p.Name, plantedUse)
			}
		}
		progs[i] = pp
	}
	return progs, nil
}

// lineOf is the 1-based line of the first line containing s, or 0.
func lineOf(src, s string) int {
	for i, line := range strings.Split(src, "\n") {
		if strings.Contains(line, s) {
			return i + 1
		}
	}
	return 0
}

func runPaperSuite(opts options, log *os.File) (*result, error) {
	var progs []paperProgram
	setupS, err := setup(func() (err error) {
		progs, err = paperInputs(paperProfiles(opts.smoke), opts.seed)
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
		for _, p := range progs {
			m := opMetrics{}
			o.record(p.name, paperOp(p, tr, m))
			s.addOp(p.name, m)
		}
	}
	fmt.Fprintf(log, "paper-suite: %d programs x %d rounds, seed %d\n", len(progs), rounds, opts.seed)
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
	vals["interp.usher_overhead_pct"] /= float64(len(progs))
	vals["mem.peak_rss_mb"] = peakRSSMB()
	return o.finish(log, layerMetrics(vals)), nil
}

// paperOp compiles, analyzes and runs one program, filing its figures
// into m, and returns the failed checks. With a tracer, every layer call
// is a span of its own.
func paperOp(p paperProgram, tr *tracer, m opMetrics) (failures []string) {
	defer func() {
		if r := recover(); r != nil {
			failures = append(failures, fmt.Sprintf("panic: %v", r))
		}
	}()
	rt0 := collected()
	var native *interp.Result
	var runs []*interp.Result
	var err error
	if tr == nil {
		native, runs, err = paperUntraced(p, m)
	} else {
		native, runs, err = paperTraced(p, tr, m)
	}
	gcMetrics(m, readRuntime().sub(rt0))
	if err != nil {
		return []string{err.Error()}
	}
	failures = checkOracle(p.bugLine, native)
	for i, cfg := range usher.ExtendedConfigs {
		failures = append(failures, checkInstrumentedRun(cfg.String(), native, runs[i])...)
	}
	u := runs[indexOf(usher.ConfigUsherFull)]
	m["interp.usher_overhead_pct"] = overheadPct(u.ShadowProps, u.ShadowChecks, native.Steps)
	return failures
}

func paperUntraced(p paperProgram, m opMetrics) (*interp.Result, []*interp.Result, error) {
	t0 := time.Now()
	prog, err := compileSource(p.file, p.src)
	if err != nil {
		return nil, nil, err
	}
	_, ans, err := analyzeAll(prog)
	if err != nil {
		return nil, nil, err
	}
	native, err := usher.RunNative(prog, usher.RunOptions{})
	if err != nil {
		return nil, nil, fmt.Errorf("native run: %w", err)
	}
	runs := make([]*interp.Result, len(ans))
	for i, an := range ans {
		if runs[i], err = an.Run(usher.RunOptions{}); err != nil {
			return nil, nil, fmt.Errorf("%s run: %w", an.Config, err)
		}
	}
	m["op_s"] = since(t0)
	return native, runs, nil
}

func paperTraced(p paperProgram, tr *tracer, m opMetrics) (*interp.Result, []*interp.Result, error) {
	st := &stepper{tr: tr, root: tr.begin(0, "op", p.name), op: p.name, m: m}
	defer func() { m["op_s"] = tr.end(st.root) }()
	prog, err := st.tracedCompile(p.file, p.src)
	if err != nil {
		return nil, nil, err
	}
	plans, _, err := st.tracedAnalyze(prog)
	if err != nil {
		return nil, nil, err
	}
	var native *interp.Result
	runs := make([]*interp.Result, len(plans))
	st.then(&err, "interp.native", "interp.native_s", "interp.alloc_mb", func() (e error) {
		native, e = usher.RunNative(prog, usher.RunOptions{})
		return e
	})
	for i, cfg := range usher.ExtendedConfigs {
		name := "interp.guided"
		if cfg == usher.ConfigMSan {
			name = "interp.msan"
		}
		an := &usher.Analysis{Config: cfg, Prog: prog, Plan: plans[i].Plan}
		st.then(&err, name, name+"_s", "interp.alloc_mb", func() (e error) {
			runs[i], e = an.Run(usher.RunOptions{})
			return e
		})
	}
	if err != nil {
		return nil, nil, err
	}
	m["interp.steps"] = float64(native.Steps)
	u := runs[indexOf(usher.ConfigUsherFull)]
	m["interp.usher_props"] = float64(u.ShadowProps)
	m["interp.usher_checks"] = float64(u.ShadowChecks)
	return native, runs, nil
}
