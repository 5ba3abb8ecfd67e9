package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/instrument"
	"github.com/valueflow/usher/internal/interp"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/pipeline"
)

// smoke runs a workload on its reduced inputs, untraced and traced, and
// checks that every operation passed and that the run reports exactly
// BENCHMARK.json's end-to-end metrics (untraced, each above 0) or
// per-layer metrics (traced), each in its unit.
func smoke(t *testing.T, workload string, usherd string) {
	t.Helper()
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	spec := readSpec(t)
	for _, trace := range []bool{false, true} {
		opts := options{workload: workload, seed: 7, seconds: 0.5, trace: trace, smoke: true, usherd: usherd, outDir: t.TempDir()}
		res, err := workloads[workload](opts, devnull)
		if err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		want := spec.EndToEnd
		if trace {
			want = spec.PerLayer
		}
		if len(res.Metrics) != len(want) {
			t.Fatalf("trace=%v: %d metrics, want %d: %v", trace, len(res.Metrics), len(want), res.Metrics)
		}
		for _, w := range want {
			m, ok := res.Metrics[w.Name]
			if !ok {
				t.Fatalf("trace=%v: metric %s missing", trace, w.Name)
			}
			if m.Unit != w.Unit {
				t.Errorf("trace=%v: metric %s in %s, BENCHMARK.json says %s", trace, w.Name, m.Unit, w.Unit)
			}
			if !trace && m.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, want > 0", w.Name, m.Value)
			}
		}
	}
}

type specMetric struct{ Name, Unit string }

// readSpec reads the metric lists of BENCHMARK.json.
func readSpec(t *testing.T) (spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSmokePaperSuite(t *testing.T) { smoke(t, "paper-suite", "") }

func TestSmokeBigGraphs(t *testing.T) { smoke(t, "big-graphs", "") }

func TestSmokeDaemonMix(t *testing.T) {
	usherd := filepath.Join(t.TempDir(), "usherd")
	out, err := exec.Command("go", "build", "-o", usherd, "github.com/valueflow/usher/cmd/usherd").CombinedOutput()
	if err != nil {
		t.Fatalf("build usherd: %v\n%s", err, out)
	}
	smoke(t, "daemon-mix", usherd)
}

// TestPlanSpecsMatchSession keeps the traced run's plan specifications
// in step with the configurations usher.Session.Analyze runs.
func TestPlanSpecsMatchSession(t *testing.T) {
	prog := smokeProgram(t)
	store := pipeline.NewStore(prog, nil)
	sess := usher.NewSession(prog)
	for _, cfg := range usher.ExtendedConfigs {
		pr, err := store.Plan(planSpecs[cfg])
		if err != nil {
			t.Fatal(err)
		}
		an, err := sess.Analyze(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Plan.Fingerprint() != an.Plan.Fingerprint() {
			t.Errorf("%s: the traced plan differs from Session.Analyze's", cfg)
		}
	}
}

// smokeProgram is the smoke-size parser program, whose planted bug makes
// every warning check non-vacuous.
func smokeProgram(t *testing.T) *ir.Program {
	t.Helper()
	progs, err := paperInputs(paperProfiles(true), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		if p.bugLine > 0 {
			prog, err := compileSource(p.file, p.src)
			if err != nil {
				t.Fatal(err)
			}
			return prog
		}
	}
	t.Fatal("no smoke program with a planted bug")
	return nil
}

// paperRuns compiles the smoke parser program and returns its bug line,
// native run, the six configurations' runs and their plans.
func paperRuns(t *testing.T) (int, *interp.Result, []*interp.Result, []*instrument.Plan) {
	t.Helper()
	progs, err := paperInputs(paperProfiles(true), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		if p.bugLine == 0 {
			continue
		}
		prog, err := compileSource(p.file, p.src)
		if err != nil {
			t.Fatal(err)
		}
		_, ans, err := analyzeAll(prog)
		if err != nil {
			t.Fatal(err)
		}
		native, err := usher.RunNative(prog, usher.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var runs []*interp.Result
		var plans []*instrument.Plan
		for _, an := range ans {
			r, err := an.Run(usher.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, r)
			plans = append(plans, an.Plan)
		}
		return p.bugLine, native, runs, plans
	}
	t.Fatal("no smoke program with a planted bug")
	return 0, nil, nil, nil
}

// TestPaperChecks checks that the paper-suite checks pass on real runs
// and fail on each kind of corrupted result.
func TestPaperChecks(t *testing.T) {
	bugLine, native, runs, plans := paperRuns(t)
	if msgs := checkOracle(bugLine, native); len(msgs) != 0 {
		t.Fatalf("oracle check fails on a real run: %v", msgs)
	}
	for i, cfg := range usher.ExtendedConfigs {
		if msgs := checkInstrumentedRun(cfg.String(), native, runs[i]); len(msgs) != 0 {
			t.Fatalf("%s fails on a real run: %v", cfg, msgs)
		}
	}

	dropped := *native
	dropped.OracleWarnings = nil
	if len(checkOracle(bugLine, &dropped)) == 0 {
		t.Error("a dropped oracle site passes")
	}
	if len(checkOracle(0, native)) == 0 {
		t.Error("an oracle site in a program with no planted bug passes")
	}

	usherRun := runs[indexOf(usher.ConfigUsherFull)]
	for name, corrupt := range map[string]func(r *interp.Result){
		"changed exit value":        func(r *interp.Result) { r.Exit.Int++ },
		"injected shadow violation": func(r *interp.Result) { r.ShadowViolations = []string{"load of uninitialized cell shadow"} },
		"changed printed output":    func(r *interp.Result) { r.Out = append([]int64{1}, r.Out...) },
		"dropped shadow warning":    func(r *interp.Result) { r.ShadowWarnings = nil },
		"warning outside the oracle": func(r *interp.Result) {
			r.ShadowWarnings = append(r.ShadowWarnings, interp.Warning{Fn: "main", Label: 1})
		},
	} {
		bad := *usherRun
		corrupt(&bad)
		if len(checkInstrumentedRun("Usher", native, &bad)) == 0 {
			t.Errorf("%s passes", name)
		}
	}

	msan := plans[indexOf(usher.ConfigMSan)]
	guided := plans[indexOf(usher.ConfigUsherTLAT)]
	if msgs := checkGuidedSubset("UsherTL+AT", msan, guided); len(msgs) != 0 {
		t.Fatalf("subset check fails on real plans: %v", msgs)
	}
	var s site
	for s = range checkSites(guided) {
		break
	}
	if s.fn == "" {
		t.Fatal("the guided plan checks no site")
	}
	if len(checkGuidedSubset("UsherTL+AT", withoutSite(msan, s), guided)) == 0 {
		t.Error("a guided check site MSan lacks passes")
	}
}

// withoutSite copies p without the checks at s.
func withoutSite(p *instrument.Plan, s site) *instrument.Plan {
	out := &instrument.Plan{Name: p.Name, Fns: make(map[*ir.Function]*instrument.FnPlan, len(p.Fns))}
	for fn, fp := range p.Fns {
		cp := *fp
		if fn.Name == s.fn {
			cp.Items = make(map[int][]instrument.Item, len(fp.Items))
			for l, items := range fp.Items {
				if l != s.label {
					cp.Items[l] = items
				}
			}
		}
		out.Fns[fn] = &cp
	}
	return out
}

// TestBigChecks checks the big-graphs checks on the smoke inputs and
// against wrong generator facts.
func TestBigChecks(t *testing.T) {
	ins, err := bigInputs(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		m := opMetrics{}
		if msgs := bigOp(in, nil, m); len(msgs) != 0 {
			t.Fatalf("%s fails: %v", in.name, msgs)
		}
		if in.bottomPrefix == "" {
			continue
		}
		prog := in.build()
		sess := usher.NewSession(prog)
		an, err := sess.Analyze(usher.ConfigMSan)
		if err != nil {
			t.Fatal(err)
		}
		g, gm, err := sess.Graph(false)
		if err != nil {
			t.Fatal(err)
		}
		f := in.facts[0]
		f.targets++
		if len(checkCallFact(f, prog, an.Pointer)) == 0 {
			t.Error("a call fact with one target too many passes")
		}
		if len(checkAllBottom("full", in.bottomPrefix, in.bottomRegs+1, prog, g, gm)) == 0 {
			t.Error("a wrong worker register count passes")
		}
		if len(checkAllBottom("full", "usite_", 0, prog, g, gm)) == 0 {
			t.Error("site functions whose registers are partly defined pass as all undefined")
		}
	}
}

// TestMixChecks checks the daemon-mix answer checks against corrupted
// answers: a dropped planted warning, a changed exit value, an answer
// that differs from the flattened single file, and a resubmission that
// answers differently.
func TestMixChecks(t *testing.T) {
	in, err := mixSchedule(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := in.project
	e, err := expect(p)
	if err != nil {
		t.Fatal(err)
	}
	answer := func() reply {
		r := reply{sent: sent{classNew, p}, status: 200}
		body := map[string]any{
			"cache_hit":  false,
			"elapsed_ms": 12.5,
			"phases":     []any{},
			"configs": []any{map[string]any{
				"config": "Usher", "static_props": e.flat.staticProps, "static_checks": e.flat.staticChecks,
				"mfcs_simplified": e.flat.mfcs, "redirected": e.flat.redirected, "checks_elided": e.flat.elided,
				"run": map[string]any{
					"exit": e.flat.exit, "steps": e.flat.steps, "shadow_props": e.flat.props, "shadow_checks": e.flat.checks,
					"warnings": warningsFor(t, e.flat.sites, in.bugSites),
				},
			}},
		}
		var err error
		if r.body, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(r.body, &r.resp); err != nil {
			t.Fatal(err)
		}
		return r
	}
	if msgs := checkReply(answer(), e, in); len(msgs) != 0 {
		t.Fatalf("a correct answer fails: %v", msgs)
	}
	for name, corrupt := range map[string]func(r *reply){
		"dropped planted warning": func(r *reply) { ws := &r.resp.Configs[0].Run.Warnings; *ws = (*ws)[1:] },
		"changed exit value":      func(r *reply) { r.resp.Configs[0].Run.Exit++ },
		"differs from flattened":  func(r *reply) { r.resp.Configs[0].StaticChecks++ },
		"run error":               func(r *reply) { r.resp.Configs[0].Run.Error = "step budget exhausted" },
	} {
		r := answer()
		corrupt(&r)
		if len(checkReply(r, e, in)) == 0 {
			t.Errorf("%s passes", name)
		}
	}

	first := answer().body
	again := strings.Replace(string(first), `"cache_hit":false`, `"cache_hit":true`, 1)
	again = strings.Replace(again, `"elapsed_ms":12.5`, `"elapsed_ms":3`, 1)
	if msgs := checkResubmission(first, []byte(again)); len(msgs) != 0 {
		t.Fatalf("a resubmission differing only in cache_hit and elapsed_ms fails: %v", msgs)
	}
	differs := strings.Replace(string(first), `"config":"Usher"`, `"config":"MSan"`, 1)
	if len(checkResubmission(first, []byte(differs))) == 0 {
		t.Error("a resubmission that answers differently passes")
	}

	var o ops
	refused := reply{sent: sent{classNew, p}, status: 500, body: []byte("analyze: internal error")}
	checkMix([]reply{answer(), refused}, in, &o)
	if o.attempted != 2 || o.failed != 1 {
		t.Errorf("a request answered 500: %d of %d requests failed, want 1 of 2", o.failed, o.attempted)
	}
}

// warningsFor renders the flattened answer's sites as response warnings
// positioned at the planted sites, in the same order.
func warningsFor(t *testing.T, sites []string, planted map[string]bool) []any {
	t.Helper()
	pos := keys(planted)
	if len(sites) != len(pos) {
		t.Fatalf("%d flattened warning sites, %d planted", len(sites), len(pos))
	}
	var out []any
	for i, s := range sites {
		fn, label, _ := strings.Cut(s, "@")
		var l int
		if err := json.Unmarshal([]byte(label), &l); err != nil {
			t.Fatal(err)
		}
		out = append(out, map[string]any{"fn": fn, "label": l, "pos": pos[i] + ":3"})
	}
	return out
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "b", Start: 3, End: 6},
		{ID: 4, Parent: 3, Name: "c", Start: 4, End: 5},
	}}
	self := tr.selfTimes()
	for name, want := range map[string]float64{"op": 5, "a": 3, "b": 2, "c": 1} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
}
