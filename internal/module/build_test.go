package module_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/module"
	"github.com/valueflow/usher/internal/stats"
	"github.com/valueflow/usher/internal/workload"
)

// testFiles is a small hand-written module set with one planted
// undefined-value use (main branches on a conditionally assigned local).
var testFiles = []module.File{
	{Name: "math", Source: `
#include "proto"
int twice(int x) { return x + x; }
int pick(int a, int b) {
  if (flag(a) > 0) { return a; }
  return b;
}
`},
	{Name: "proto", Source: `
int flag(int v);
struct Pair { int x; int y; };
`},
	{Name: "impl", Source: `
#include "proto"
int flag(int v) { return v & 1; }
`},
	{Name: "main", Source: `
#include "math"
#include "impl"
int main() {
  int u;
  struct Pair p;
  p.x = twice(3);
  p.y = pick(p.x, 4);
  if (p.y > 100) { u = 1; }
  if (u > 0) { p.y += 1; }
  print(p.x + p.y);
  return 0;
}
`},
}

// projectFiles generates p's modules as build inputs.
func projectFiles(p workload.ModuleProject) []module.File {
	mf := p.GenerateModules()
	out := make([]module.File, len(mf))
	for i, f := range mf {
		out[i] = module.File{Name: f.Name, Source: f.Source}
	}
	return out
}

type configAnswer struct {
	props, checks int
	warnings      []string
}

// answers analyzes and runs prog under every extended config, reducing
// each to static stats plus position-free warning sites (function,
// instruction label, message) — the representation that must agree
// between multi-file and flattened single-file builds, whose positions
// necessarily differ.
func answers(t *testing.T, prog *ir.Program) []configAnswer {
	t.Helper()
	sess := usher.NewSession(prog)
	var out []configAnswer
	for _, cfg := range usher.ExtendedConfigs {
		an, err := sess.Analyze(cfg)
		if err != nil {
			t.Fatalf("analyze %s: %v", cfg, err)
		}
		st := an.StaticStats()
		a := configAnswer{props: st.Props, checks: st.Checks}
		res, err := an.Run(usher.RunOptions{})
		if err != nil {
			t.Fatalf("run %s: %v", cfg, err)
		}
		for _, w := range res.ShadowWarnings {
			a.warnings = append(a.warnings, fmt.Sprintf("%s@%d: %s", w.Fn, w.Label, w.What))
		}
		out = append(out, a)
	}
	return out
}

func equalAnswers(a, b []configAnswer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].props != b[i].props || a[i].checks != b[i].checks {
			return false
		}
		if len(a[i].warnings) != len(b[i].warnings) {
			return false
		}
		for j := range a[i].warnings {
			if a[i].warnings[j] != b[i].warnings[j] {
				return false
			}
		}
	}
	return true
}

// TestBuildMatchesFlattened is the tentpole equivalence criterion:
// multi-file and single-file analysis of equivalent programs produce
// bit-identical warning sites and static stats across all six configs.
func TestBuildMatchesFlattened(t *testing.T) {
	for _, tc := range []struct {
		name  string
		files []module.File
	}{
		{"hand-written", testFiles},
		{"modproj-50", projectFiles(workload.DefaultModuleProject)},
		{"modproj-wide-135", projectFiles(workload.WideModuleProject)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := module.Build(tc.files, module.Options{})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			flat, err := module.Flatten(tc.files)
			if err != nil {
				t.Fatalf("flatten: %v", err)
			}
			single, err := usher.Compile("flat.c", flat)
			if err != nil {
				t.Fatalf("compile flattened: %v", err)
			}
			multi := answers(t, res.Prog)
			want := answers(t, single)
			if !equalAnswers(multi, want) {
				t.Fatalf("multi-file answers diverge from flattened single file:\nmulti: %+v\nflat:  %+v", multi, want)
			}
			if len(multi[len(multi)-1].warnings) == 0 {
				t.Fatal("equivalence is vacuous: no warnings in the corpus")
			}
		})
	}
}

// runsByPass folds a snapshot into pass → total runs and pass/variant →
// runs maps.
func runsByPass(snap []stats.PassStats) (map[string]int64, map[string]int64) {
	byPass := make(map[string]int64)
	byVariant := make(map[string]int64)
	for _, ps := range snap {
		byPass[ps.Pass] += ps.Runs
		byVariant[ps.Pass+"/"+ps.Variant] = ps.Runs
	}
	return byPass, byVariant
}

func delta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// TestIncrementalInvalidation pins the incremental contract with -stats
// evidence: a warm rebuild runs zero frontend passes; a 1-line edit of
// one leaf lib re-runs the frontend for exactly the edited module and
// its dependents; and the warm result's warning sites are bit-identical
// to a cold full analysis of the same sources.
func TestIncrementalInvalidation(t *testing.T) {
	files := projectFiles(workload.DefaultModuleProject)
	cache := module.NewCache(256 << 20)
	sc := stats.New()

	// Cold: every module's frontend runs exactly once.
	res, err := module.Build(files, module.Options{Cache: cache, Stats: sc, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compiled != 50 || res.Reused != 0 {
		t.Fatalf("cold build compiled/reused = %d/%d, want 50/0", res.Compiled, res.Reused)
	}
	_, byVariant := runsByPass(sc.Snapshot())
	for _, m := range res.Graph.Modules {
		for _, pass := range []string{"parse", "typecheck", "lower", "mem2reg", "verify"} {
			if got := byVariant[pass+"/"+m.Name]; got != 1 {
				t.Fatalf("cold %s of %s ran %d times, want 1", pass, m.Name, got)
			}
		}
	}

	// Warm, unchanged: frontend Runs stay flat for every module; only
	// link re-runs.
	before, _ := runsByPass(sc.Snapshot())
	res, err = module.Build(files, module.Options{Cache: cache, Stats: sc, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reused != 50 || res.Compiled != 0 {
		t.Fatalf("warm build compiled/reused = %d/%d, want 0/50", res.Compiled, res.Reused)
	}
	after, _ := runsByPass(sc.Snapshot())
	d := delta(before, after)
	if len(d) != 1 || d["link"] != 1 {
		t.Fatalf("warm rebuild pass deltas = %v, want only link=1", d)
	}

	// Edit one leaf lib: exactly lib_07, agg_1 and main recompile.
	mf := workload.DefaultModuleProject.GenerateModules()
	mf, ok := workload.Edit(mf, "lib_07", 2)
	if !ok {
		t.Fatal("edit failed")
	}
	edited := make([]module.File, len(mf))
	for i, f := range mf {
		edited[i] = module.File{Name: f.Name, Source: f.Source}
	}
	_, byVarBefore := runsByPass(sc.Snapshot())
	res, err = module.Build(edited, module.Options{Cache: cache, Stats: sc, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reused != 47 || res.Compiled != 3 {
		t.Fatalf("post-edit build compiled/reused = %d/%d, want 3/47", res.Compiled, res.Reused)
	}
	_, byVarAfter := runsByPass(sc.Snapshot())
	recompiled := map[string]bool{"lib_07": true, "agg_1": true, "main": true}
	for _, m := range res.Graph.Modules {
		got := byVarAfter["parse/"+m.Name] - byVarBefore["parse/"+m.Name]
		want := int64(0)
		if recompiled[m.Name] {
			want = 1
		}
		if got != want {
			t.Errorf("after the edit, parse of %s ran %d more times, want %d", m.Name, got, want)
		}
	}

	// Warm result ≡ cold full analysis of the same edited sources.
	cold, err := module.Build(edited, module.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ir.Print(res.Prog) != ir.Print(cold.Prog) {
		t.Fatal("warm incremental program differs from a cold build of the same sources")
	}
	if !equalAnswers(answers(t, res.Prog), answers(t, cold.Prog)) {
		t.Fatal("warm incremental answers differ from a cold build of the same sources")
	}
}

// TestBuildParallelDeterminism pins that the linked program is
// byte-identical for sequential and parallel batch compiles.
func TestBuildParallelDeterminism(t *testing.T) {
	files := projectFiles(workload.DefaultModuleProject)
	seq, err := module.Build(files, module.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := module.Build(files, module.Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ir.Print(seq.Prog) != ir.Print(par.Prog) {
		t.Fatal("parallel build produced a different program than sequential")
	}
}

// TestBuildLinkErrors pins cross-module conflicts as positioned link
// diagnostics.
func TestBuildLinkErrors(t *testing.T) {
	dupGlobal := []module.File{
		{Name: "a", Source: "int shared;\n"},
		{Name: "b", Source: "int shared;\nint main() { return 0; }\n"},
	}
	if _, err := module.Build(dupGlobal, module.Options{}); err == nil {
		t.Error("duplicate global across modules not reported")
	}
	dupFunc := []module.File{
		{Name: "a", Source: "int f() { return 1; }\n"},
		{Name: "b", Source: "int f() { return 2; }\nint main() { return f(); }\n"},
	}
	if _, err := module.Build(dupFunc, module.Options{}); err == nil {
		t.Error("duplicate function definition across modules not reported")
	}
}

// TestCacheSingleFlight pins that concurrent builds of the same hash
// coalesce onto one compile (run under -race in CI).
func TestCacheSingleFlight(t *testing.T) {
	files := projectFiles(workload.DefaultModuleProject)
	cache := module.NewCache(256 << 20)
	const builders = 6
	var wg sync.WaitGroup
	results := make([]*module.Result, builders)
	errs := make([]error, builders)
	for i := 0; i < builders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = module.Build(files, module.Options{Cache: cache, Parallel: 2})
		}(i)
	}
	wg.Wait()
	totalCompiled := 0
	for i := 0; i < builders; i++ {
		if errs[i] != nil {
			t.Fatalf("builder %d: %v", i, errs[i])
		}
		if results[i].Compiled+results[i].Reused != 50 {
			t.Fatalf("builder %d resolved %d modules, want 50",
				i, results[i].Compiled+results[i].Reused)
		}
		totalCompiled += results[i].Compiled
	}
	// Every module compiles at most once across ALL builders: the rest
	// are cache hits or coalesced waiters.
	if totalCompiled > 50 {
		t.Fatalf("modules compiled %d times across %d concurrent builds, want <= 50", totalCompiled, builders)
	}
	want := ir.Print(results[0].Prog)
	for i := 1; i < builders; i++ {
		if ir.Print(results[i].Prog) != want {
			t.Fatalf("builder %d linked a different program", i)
		}
	}
}
