package pointer_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/instrument"
	"github.com/valueflow/usher/internal/interp"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/pipeline"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/randprog"
	"github.com/valueflow/usher/internal/workload"
)

// The A/B harness pins the production bit-vector solver to the legacy
// map-based reference: for every program, both implementations must
// produce identical points-to sets, call-graph edges, recursion marks
// and — end to end — identical Usher plans and warning sites. The two
// solvers run over separately compiled IR, because solving mutates the
// shared program state (object collapsing); the compiler is
// deterministic, so the printed signatures and plan fingerprints are
// comparable across compiles.

// pointerSignature renders everything the analysis answers into one
// canonical string: per-register points-to sets, per-call callee lists,
// and the recursive-function set.
func pointerSignature(prog *ir.Program, res *pointer.Result) string {
	var sb strings.Builder
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if r := in.Defines(); r != nil {
					if locs := res.PointsTo(r); len(locs) > 0 {
						fmt.Fprintf(&sb, "pts %s %s =", fn.Name, r)
						for _, l := range locs {
							fmt.Fprintf(&sb, " %s", l)
						}
						sb.WriteByte('\n')
					}
				}
				if c, ok := in.(*ir.Call); ok {
					if fns := res.Callees(c); len(fns) > 0 {
						fmt.Fprintf(&sb, "call %s %d =", fn.Name, c.Label())
						for _, f := range fns {
							fmt.Fprintf(&sb, " %s", f.Name)
						}
						sb.WriteByte('\n')
					}
				}
			}
		}
	}
	for _, fn := range prog.Funcs {
		if res.Recursive(fn) {
			fmt.Fprintf(&sb, "rec %s\n", fn.Name)
		}
	}
	return sb.String()
}

// signatureFor compiles src fresh and analyzes it with the requested
// implementation.
func signatureFor(t *testing.T, name, src string, legacy bool) string {
	t.Helper()
	prog, err := usher.Compile(name, src)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	if err := passes.Apply(prog, passes.O0IM); err != nil {
		t.Fatalf("%s: passes: %v", name, err)
	}
	var res *pointer.Result
	if legacy {
		res = pointer.AnalyzeLegacy(prog)
	} else {
		res = pointer.Analyze(prog)
	}
	return pointerSignature(prog, res)
}

func checkAB(t *testing.T, name, src string) {
	t.Helper()
	got := signatureFor(t, name, src, false)
	want := signatureFor(t, name, src, true)
	if got != want {
		t.Errorf("%s: solver A/B divergence (-bitvector +legacy):\n%s", name, diffLines(got, want))
	}
}

// diffLines renders a compact line diff of two signatures.
func diffLines(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	aset := make(map[string]bool, len(al))
	for _, l := range al {
		aset[l] = true
	}
	bset := make(map[string]bool, len(bl))
	for _, l := range bl {
		bset[l] = true
	}
	var sb strings.Builder
	for _, l := range al {
		if !bset[l] {
			sb.WriteString("- " + l + "\n")
		}
	}
	for _, l := range bl {
		if !aset[l] {
			sb.WriteString("+ " + l + "\n")
		}
	}
	if sb.Len() == 0 {
		return "(signatures differ only in ordering)"
	}
	return sb.String()
}

// checkPlanAB compares the Usher plans built on each solver's result.
// The plan moves with points-to facts that warning sites cannot see: a
// reference that drops every load and store constraint leaves randprog's
// warning sites unchanged but changes the plan of every paper profile.
func checkPlanAB(t *testing.T, name, src string) {
	t.Helper()
	_, got := usherPlanFor(t, name, src, false)
	_, want := usherPlanFor(t, name, src, true)
	if g, w := got.Fingerprint(), want.Fingerprint(); g != w {
		t.Errorf("%s: Usher plan divergence (-bitvector +legacy):\n%s", name, diffLines(g, w))
	}
}

// TestSolverABCorpus compares the solvers over the checked-in corpus.
func TestSolverABCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		checkAB(t, filepath.Base(f), string(src))
		checkPlanAB(t, filepath.Base(f), string(src))
	}
}

// TestSolverABWorkloads compares the solvers over the SPEC stand-in
// suite, plans included, and the solver-scaling profiles, whose size
// keeps them to the signature comparison.
func TestSolverABWorkloads(t *testing.T) {
	for _, p := range workload.Profiles {
		src := workload.Generate(p)
		checkAB(t, p.Name, src)
		checkPlanAB(t, p.Name, src)
	}
	for _, p := range workload.LargeProfiles {
		if testing.Short() && p.Name == "solver-large" {
			continue
		}
		checkAB(t, p.Name, workload.GenerateLarge(p))
	}
}

// TestSolverABRandprog sweeps randprog seeds: points-to equivalence on
// every seed, and end-to-end warning-site equivalence (full pipeline,
// instrumented run) on every seed as well — the solver feeds the VFG, so
// a silent divergence would surface as different warning sites.
func TestSolverABRandprog(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 60
	}
	opts := randprog.DefaultOptions
	for seed := int64(0); seed < int64(seeds); seed++ {
		src := randprog.Generate(seed, opts)
		name := fmt.Sprintf("randprog-%d", seed)
		checkAB(t, name, src)
		gotW := warningsFor(t, name, src, false)
		wantW := warningsFor(t, name, src, true)
		if gotW != wantW {
			t.Errorf("%s: end-to-end warning divergence:\nbitvector: %s\nlegacy:    %s", name, gotW, wantW)
		}
	}
}

// usherPlan is the full Usher configuration's plan spec (usher.ConfigUsherFull).
var usherPlan = pipeline.PlanSpec{Name: "Usher", OptI: true, OptII: true}

// usherPlanFor compiles src fresh and builds its Usher plan. With legacy
// set, the store is seeded with the reference solver's result before any
// pass runs, so every downstream pass consumes it in place of the
// production solve; both sides otherwise take the identical path.
func usherPlanFor(t *testing.T, name, src string, legacy bool) (*ir.Program, *instrument.Plan) {
	t.Helper()
	prog, err := usher.Compile(name, src)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	if err := passes.Apply(prog, passes.O0IM); err != nil {
		t.Fatalf("%s: passes: %v", name, err)
	}
	st := pipeline.NewStore(prog, nil)
	if legacy && !st.Preload("pointer", "", pointer.AnalyzeLegacy(prog)) {
		t.Fatalf("%s: legacy pointer result not seeded", name)
	}
	pr, err := st.Plan(usherPlan)
	if err != nil {
		t.Fatalf("%s: plan: %v", name, err)
	}
	return prog, pr.Plan
}

// warningsFor runs the full pipeline (analysis, instrumentation, guided
// execution) and returns the canonical shadow and oracle warning sites.
func warningsFor(t *testing.T, name, src string, legacy bool) string {
	t.Helper()
	prog, plan := usherPlanFor(t, name, src, legacy)
	res, err := interp.Run(prog, "main", nil, interp.Options{Shadow: &interp.ShadowConfig{Plan: plan}})
	if err != nil {
		// Generated programs may trap (uninitialized pointers): the trap
		// itself must still be solver-independent, so record it.
		return "run-error: " + err.Error()
	}
	var sb strings.Builder
	sb.WriteString("shadow:")
	for _, w := range res.ShadowWarnings {
		sb.WriteString(" " + w.String())
	}
	sb.WriteString(" oracle:")
	for _, w := range res.OracleWarnings {
		sb.WriteString(" " + w.String())
	}
	return sb.String()
}
