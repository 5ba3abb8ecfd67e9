package vfg_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/module"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/randprog"
	"github.com/valueflow/usher/internal/vfg"
	"github.com/valueflow/usher/internal/workload"
)

// The A/B harness pins ResolveWith to the dense resolver it replaced
// (vfg.ReferenceResolveWith, test-only): on both graph variants of every
// input, under every option the pipeline and the ablations use, the two
// must give every node the same state.

// refSettings are the resolution options each graph is checked under:
// no cut, three pseudo-random cuts (Opt II's re-resolution filters edges
// the same way), the §3.3 ablation and the §4.1 node merging.
var refSettings = []struct {
	name string
	opts vfg.ResolveOptions
}{
	{"plain", vfg.ResolveOptions{}},
	{"cut1", vfg.ResolveOptions{Cut: randomCut(1, 2)}},
	{"cut2", vfg.ResolveOptions{Cut: randomCut(2, 5)}},
	{"cut3", vfg.ResolveOptions{Cut: randomCut(3, 13)}},
	{"context-insensitive", vfg.ResolveOptions{ContextInsensitive: true}},
	{"merged", vfg.ResolveOptions{MergeEquivalent: true}},
}

// checkMatchesReference builds both graph variants of prog and compares
// the two resolvers node by node under every setting.
func checkMatchesReference(t *testing.T, tag string, prog *ir.Program) {
	t.Helper()
	pa := pointer.Analyze(prog)
	mem := memssa.Build(prog, pa)
	for _, tl := range []bool{false, true} {
		g := vfg.Build(prog, pa, mem, vfg.Options{TopLevelOnly: tl})
		for _, s := range refSettings {
			got := vfg.ResolveWith(g, s.opts)
			want := vfg.ReferenceResolveWith(g, s.opts)
			if got.BottomCount() != want.BottomCount() {
				t.Errorf("%s (tl=%v, %s): %d ⊥ nodes, reference %d",
					tag, tl, s.name, got.BottomCount(), want.BottomCount())
			}
			for i, nd := range g.Nodes {
				n := vfg.NodeID(i)
				if got.Of(n) != want.Of(n) {
					t.Fatalf("%s (tl=%v, %s): node %v is %v, reference %v",
						tag, tl, s.name, nd, got.Of(n), want.Of(n))
				}
			}
		}
	}
}

// compileO0IM compiles src and applies the paper's O0+IM level.
func compileO0IM(t *testing.T, name, src string) *ir.Program {
	t.Helper()
	prog, err := usher.Compile(name, src)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	if err := passes.Apply(prog, passes.O0IM); err != nil {
		t.Fatalf("%s: passes: %v", name, err)
	}
	return prog
}

// TestResolveMatchesReference runs the comparison over the sample
// programs, the committed mutant corpus, the 15 benchmark profiles,
// randprog seeds, a solver-scaling profile, the resolve-stress profile
// and both module projects.
func TestResolveMatchesReference(t *testing.T) {
	t.Run("corpus", func(t *testing.T) {
		files, err := filepath.Glob("../../testdata/*.c")
		if err != nil || len(files) == 0 {
			t.Fatalf("no sample programs: %v", err)
		}
		mutants, err := filepath.Glob("../../testdata/difftest/mutant-*.c")
		if err != nil || len(mutants) == 0 {
			t.Fatalf("no mutant corpus: %v", err)
		}
		for _, file := range append(files, mutants...) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			checkMatchesReference(t, file, compileO0IM(t, filepath.Base(file), string(src)))
		}
	})
	t.Run("profiles", func(t *testing.T) {
		for _, p := range workload.Profiles {
			checkMatchesReference(t, p.Name, compileO0IM(t, p.Name+".c", workload.Generate(p)))
		}
	})
	t.Run("randprog", func(t *testing.T) {
		seeds := 500
		if testing.Short() {
			seeds = 50
		}
		for seed := 0; seed < seeds; seed++ {
			name := fmt.Sprintf("seed%d.c", seed)
			prog, err := usher.Compile(name, randprog.Generate(int64(seed), randprog.DefaultOptions))
			if err != nil {
				continue // the generator may emit ill-typed programs
			}
			if err := passes.Apply(prog, passes.O0IM); err != nil {
				t.Fatalf("%s: passes: %v", name, err)
			}
			checkMatchesReference(t, name, prog)
		}
	})
	t.Run("solver-small", func(t *testing.T) {
		p := workload.LargeProfiles[0]
		checkMatchesReference(t, p.Name, compileO0IM(t, p.Name+".c", workload.GenerateLarge(p)))
	})
	t.Run("resolve-xl-small", func(t *testing.T) {
		p, ok := workload.XLByName("resolve-xl-small")
		if !ok {
			t.Fatal("no resolve-xl-small profile")
		}
		checkMatchesReference(t, p.Name, workload.BuildXL(p))
	})
	for _, mp := range []workload.ModuleProject{workload.DefaultModuleProject, workload.WideModuleProject} {
		name := fmt.Sprintf("%s-%d", mp.Name, mp.NumModules())
		t.Run(name, func(t *testing.T) {
			var files []module.File
			for _, f := range mp.GenerateModules() {
				files = append(files, module.File{Name: f.Name, Source: f.Source})
			}
			r, err := module.Build(files, module.Options{Cache: module.NewCache(256 << 20), Parallel: 1})
			if err != nil {
				t.Fatal(err)
			}
			checkMatchesReference(t, name, r.Prog)
		})
	}
}

// TestResolveAllocationsPerEntry pins that resolution allocates a fixed
// set of arrays, not state per calling context: resolve-xl-small enters
// each of 24 worker bodies from 40 call sites, and the dense reference
// allocated a context bit set for every worker node it reached (2,940
// objects in all).
func TestResolveAllocationsPerEntry(t *testing.T) {
	p, ok := workload.XLByName("resolve-xl-small")
	if !ok {
		t.Fatal("no resolve-xl-small profile")
	}
	prog := workload.BuildXL(p)
	pa := pointer.Analyze(prog)
	g := vfg.Build(prog, pa, memssa.Build(prog, pa), vfg.Options{})
	allocs := testing.AllocsPerRun(5, func() { vfg.Resolve(g) })
	if allocs >= 300 {
		t.Errorf("one resolution allocates %.0f objects, want fewer than 300", allocs)
	}
	t.Logf("%.0f allocations per resolution (reference: %.0f)", allocs,
		testing.AllocsPerRun(1, func() { vfg.ReferenceResolveWith(g, vfg.ResolveOptions{}) }))
}
