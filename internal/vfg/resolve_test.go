package vfg_test

import (
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/randprog"
	"github.com/valueflow/usher/internal/vfg"
	"github.com/valueflow/usher/internal/workload"
)

func buildGraph(t *testing.T, src string) *vfg.Graph {
	t.Helper()
	irp := usher.MustCompile("t.c", src)
	pa := pointer.Analyze(irp)
	mem := memssa.Build(irp, pa)
	return vfg.Build(irp, pa, mem, vfg.Options{})
}

const ctxSrc = `
int id(int x) { return x; }
int main(int c) {
  int u;
  if (c) { u = 1; }
  int a = id(u);
  int b = id(5);
  if (a) { print(1); }
  if (b) { print(2); }
  return 0;
}`

// TestContextInsensitiveAblation shows why context sensitivity matters:
// without call/return matching, the undefined value entering id() at one
// call site pollutes the result at the other.
func TestContextInsensitiveAblation(t *testing.T) {
	g := buildGraph(t, ctxSrc)
	cs := vfg.Resolve(g)
	ci := vfg.ResolveWith(g, vfg.ResolveOptions{ContextInsensitive: true})

	if ci.BottomCount() <= cs.BottomCount() {
		t.Errorf("context-insensitive ⊥ count %d not above sensitive %d",
			ci.BottomCount(), cs.BottomCount())
	}
	// CI must be a sound over-approximation: every CS-⊥ node stays ⊥.
	for i, nd := range g.Nodes {
		n := vfg.NodeID(i)
		if cs.Of(n) == vfg.Bottom && ci.Of(n) != vfg.Bottom {
			t.Errorf("node %v: ⊥ under CS but ⊤ under CI (unsound ablation?)", nd)
		}
	}
}

// TestMergeEquivalentGammaIdentical checks that resolving over
// access-equivalence classes yields exactly the same Γ on every workload
// benchmark.
func TestMergeEquivalentGammaIdentical(t *testing.T) {
	for _, name := range []string{"gzip", "mcf", "parser"} {
		p, _ := workload.ByName(name)
		irp := usher.MustCompile(name+".c", workload.Generate(p))
		pa := pointer.Analyze(irp)
		mem := memssa.Build(irp, pa)
		g := vfg.Build(irp, pa, mem, vfg.Options{})

		plain := vfg.Resolve(g)
		merged := vfg.ResolveWith(g, vfg.ResolveOptions{MergeEquivalent: true})
		for i, nd := range g.Nodes {
			n := vfg.NodeID(i)
			if plain.Of(n) != merged.Of(n) {
				t.Fatalf("%s: node %v: plain %v, merged %v", name, nd, plain.Of(n), merged.Of(n))
			}
		}
		eq := vfg.ComputeAccessEquivalence(g)
		if eq.Merged(g) == 0 {
			t.Errorf("%s: no nodes merged; merging is vacuous", name)
		}
	}
}

// TestMergeEquivalentOnRandomPrograms extends the identity check to the
// fuzzer corpus.
func TestMergeEquivalentOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		src := randprog.Generate(seed, randprog.DefaultOptions)
		irp := usher.MustCompile("rand.c", src)
		pa := pointer.Analyze(irp)
		mem := memssa.Build(irp, pa)
		g := vfg.Build(irp, pa, mem, vfg.Options{})
		plain := vfg.Resolve(g)
		merged := vfg.ResolveWith(g, vfg.ResolveOptions{MergeEquivalent: true})
		for i, nd := range g.Nodes {
			n := vfg.NodeID(i)
			if plain.Of(n) != merged.Of(n) {
				t.Fatalf("seed %d: node %v: plain %v, merged %v\n%s",
					seed, nd, plain.Of(n), merged.Of(n), src)
			}
		}
	}
}

// TestContextInsensitiveSoundOnRandomPrograms: CI ⊥ sets always contain
// the CS ⊥ sets.
func TestContextInsensitiveSoundOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		src := randprog.Generate(seed, randprog.DefaultOptions)
		irp := usher.MustCompile("rand.c", src)
		pa := pointer.Analyze(irp)
		mem := memssa.Build(irp, pa)
		g := vfg.Build(irp, pa, mem, vfg.Options{})
		cs := vfg.Resolve(g)
		ci := vfg.ResolveWith(g, vfg.ResolveOptions{ContextInsensitive: true})
		for i, nd := range g.Nodes {
			n := vfg.NodeID(i)
			if cs.Of(n) == vfg.Bottom && ci.Of(n) == vfg.Top {
				t.Fatalf("seed %d: node %v ⊥ under CS, ⊤ under CI", seed, nd)
			}
		}
	}
}
