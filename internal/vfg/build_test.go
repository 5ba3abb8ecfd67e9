package vfg_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/randprog"
	"github.com/valueflow/usher/internal/vfg"
	"github.com/valueflow/usher/internal/workload"
)

// shapeInput is one program whose graphs the shape tests build.
type shapeInput struct {
	name string
	prog func(testing.TB) *ir.Program
}

func compiledAt(name, src string, level passes.Level) func(testing.TB) *ir.Program {
	return func(tb testing.TB) *ir.Program {
		tb.Helper()
		prog, err := usher.Compile(name, src)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		if err := passes.Apply(prog, level); err != nil {
			tb.Fatalf("%s at %s: %v", name, level, err)
		}
		return prog
	}
}

// shapeInputs are the sample and mutant corpus, randprog seeds, and the
// smallest large, XL and resolve profiles, whose indirect calls reach
// many callees.
func shapeInputs(t *testing.T) []shapeInput {
	var in []shapeInput
	var files []string
	for _, pat := range []string{"../../testdata/*.c", "../../testdata/difftest/mutant-*.c"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) == 0 {
		t.Fatal("no corpus programs under testdata")
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, shapeInput{f, compiledAt(f, string(data), passes.O0IM)})
	}
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(0); seed < seeds; seed++ {
		src := randprog.Generate(seed, randprog.DefaultOptions)
		in = append(in, shapeInput{"randprog", compiledAt("rand.c", src, passes.O0)})
	}
	lp := workload.LargeProfiles[0]
	in = append(in, shapeInput{lp.Name, compiledAt(lp.Name+".c", workload.GenerateLarge(lp), passes.O0IM)})
	for _, p := range []workload.XLProfile{workload.XLProfiles[0], workload.ResolveProfiles[0]} {
		p := p
		in = append(in, shapeInput{p.Name, func(testing.TB) *ir.Program { return workload.BuildXL(p) }})
	}
	return in
}

// TestDepsAreDistinct pins the sealed graph's edge layout: every node's
// dependences are distinct (target, kind, site) triples, and the users
// are exactly the dependences reversed, listed in node order.
func TestDepsAreDistinct(t *testing.T) {
	type triple struct {
		to   vfg.NodeID
		site int32
		kind vfg.EdgeKind
	}
	for _, in := range shapeInputs(t) {
		prog := in.prog(t)
		pa := pointer.Analyze(prog)
		mem := memssa.Build(prog, pa)
		for _, tl := range []bool{false, true} {
			g := vfg.Build(prog, pa, mem, vfg.Options{TopLevelOnly: tl})
			n := len(g.Nodes)
			users := make([][]vfg.Edge, n)
			repeats, edges := 0, 0
			for i := range g.Nodes {
				v := vfg.NodeID(i)
				seen := make(map[triple]bool)
				for _, e := range g.Deps(v) {
					edges++
					k := triple{e.To, e.Site, e.Kind}
					if seen[k] {
						repeats++
					}
					seen[k] = true
					if (e.Kind == vfg.EdgeIntra) != (e.Site == 0) || int(e.Site) > g.NumSites() {
						t.Errorf("%s (top-level %v): node %v: %v edge with site %d of %d",
							in.name, tl, g.Nodes[v], e.Kind, e.Site, g.NumSites())
					}
					users[e.To] = append(users[e.To], vfg.Edge{To: v, Site: e.Site, Kind: e.Kind})
				}
			}
			if repeats > 0 {
				t.Errorf("%s (top-level %v): %d of %d dependence edges repeat one the node already has",
					in.name, tl, repeats, edges)
			}
			if edges != g.NumEdges() {
				t.Errorf("%s (top-level %v): %d edges listed, NumEdges %d", in.name, tl, edges, g.NumEdges())
			}
			for i := range g.Nodes {
				got, want := g.Users(vfg.NodeID(i)), users[i]
				if len(got) != len(want) {
					t.Fatalf("%s (top-level %v): node %v has %d users, %d reversed dependences",
						in.name, tl, g.Nodes[i], len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("%s (top-level %v): node %v user %d is %+v, reversed dependence %+v",
							in.name, tl, g.Nodes[i], j, got[j], want[j])
					}
				}
			}
		}
	}
}

// BenchmarkBuild builds the full graph of the two largest inputs of the
// big-graphs benchmark workload; pointer analysis and memory SSA are
// set-up.
func BenchmarkBuild(b *testing.B) {
	lp, _ := workload.LargeByName("solver-large")
	xp, _ := workload.XLByName("solver-xl-medium")
	for _, in := range []shapeInput{
		{lp.Name, compiledAt(lp.Name+".c", workload.GenerateLarge(lp), passes.O0IM)},
		{xp.Name, func(testing.TB) *ir.Program { return workload.BuildXL(xp) }},
	} {
		b.Run(in.name, func(b *testing.B) {
			prog := in.prog(b)
			pa := pointer.Analyze(prog)
			mem := memssa.Build(prog, pa)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if g := vfg.Build(prog, pa, mem, vfg.Options{}); len(g.Nodes) == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}
