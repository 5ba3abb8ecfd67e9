package vfg_test

import (
	"fmt"
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

// checkRepresentativeGamma checks the claim behind the §4.1 node merging
// that the ablation's merged-away column counts: under plain resolution
// every node has the Γ of its access-equivalence class representative, so
// resolving one node per class would leave Γ identical.
func checkRepresentativeGamma(t *testing.T, name, src string) (merged int) {
	t.Helper()
	g := buildGraph(t, src)
	gm := vfg.Resolve(g)
	eq := vfg.ComputeAccessEquivalence(g)
	for i, nd := range g.Nodes {
		n := vfg.NodeID(i)
		if r := eq.Rep(n); gm.Of(n) != gm.Of(r) {
			t.Fatalf("%s: node %v is %v, its representative %v is %v",
				name, nd, gm.Of(n), g.Nodes[r], gm.Of(r))
		}
	}
	return eq.Merged(g)
}

// TestMergeEquivalentGammaIdentical checks that merging access-equivalent
// nodes leaves Γ identical on three workload benchmarks.
func TestMergeEquivalentGammaIdentical(t *testing.T) {
	for _, name := range []string{"gzip", "mcf", "parser"} {
		p, _ := workload.ByName(name)
		if checkRepresentativeGamma(t, name, workload.Generate(p)) == 0 {
			t.Errorf("%s: no nodes merged; the check is vacuous", name)
		}
	}
}

// TestMergeEquivalentOnRandomPrograms extends the identity check to the
// fuzzer corpus.
func TestMergeEquivalentOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		checkRepresentativeGamma(t, fmt.Sprintf("seed %d", seed), randprog.Generate(seed, randprog.DefaultOptions))
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
