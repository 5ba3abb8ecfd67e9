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

// randomCut returns a deterministic pseudo-random edge predicate: the
// salt picks a different ~1/k slice of the edge space per iteration, so
// the property sweep covers cuts of seed edges (from RootF), intra
// edges, and interprocedural edges alike.
func randomCut(salt, k int) func(from, to vfg.NodeID) bool {
	return func(from, to vfg.NodeID) bool {
		return (int(from)*2654435761+int(to)*40503+salt)%k == 0
	}
}

// checkCutEquivalence pins three facts about one (graph, cut) pair:
//
//  1. ResolveCut is exactly ResolveWith with the same Cut option (the
//     convenience wrapper adds nothing);
//  2. the dense reference resolver (vfg.ReferenceResolveWith) produces
//     the identical Γ under the same cut;
//  3. cutting edges is monotone: an edge cut only removes ⊥ flows, so
//     the cut ⊥ set is a subset of the uncut one.
func checkCutEquivalence(t *testing.T, tag string, g *vfg.Graph, cut func(from, to vfg.NodeID) bool) {
	t.Helper()
	uncut := vfg.Resolve(g)
	viaCut := vfg.ResolveCut(g, cut)
	viaWith := vfg.ResolveWith(g, vfg.ResolveOptions{Cut: cut})
	viaRef := vfg.ReferenceResolveWith(g, vfg.ResolveOptions{Cut: cut})
	for i, nd := range g.Nodes {
		n := vfg.NodeID(i)
		if viaCut.Of(n) != viaWith.Of(n) {
			t.Fatalf("%s: node %v: ResolveCut %v, ResolveWith{Cut} %v",
				tag, nd, viaCut.Of(n), viaWith.Of(n))
		}
		if viaCut.Of(n) != viaRef.Of(n) {
			t.Fatalf("%s: node %v: cut %v, reference cut %v",
				tag, nd, viaCut.Of(n), viaRef.Of(n))
		}
		if viaCut.Of(n) == vfg.Bottom && uncut.Of(n) == vfg.Top {
			t.Fatalf("%s: node %v: ⊥ under the cut but ⊤ without it (cut added a flow)",
				tag, nd)
		}
	}
}

// TestResolveCutEquivalenceWorkloads sweeps pseudo-random cut
// predicates over workload graphs.
func TestResolveCutEquivalenceWorkloads(t *testing.T) {
	for _, name := range []string{"gzip", "equake", "ammp"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		g := buildGraph(t, workload.Generate(p))
		for salt := 0; salt < 4; salt++ {
			for _, k := range []int{2, 5, 13} {
				checkCutEquivalence(t, name, g, randomCut(salt, k))
			}
		}
		// Degenerate cuts: nothing cut (must equal the plain resolution)
		// and everything cut (⊥ must be empty — even seed edges are cut).
		none := vfg.ResolveCut(g, func(from, to vfg.NodeID) bool { return false })
		plain := vfg.Resolve(g)
		for i, nd := range g.Nodes {
			n := vfg.NodeID(i)
			if none.Of(n) != plain.Of(n) {
				t.Fatalf("%s: node %v: empty cut diverges from plain resolution", name, nd)
			}
		}
		all := vfg.ResolveCut(g, func(from, to vfg.NodeID) bool { return true })
		if all.BottomCount() != 0 {
			t.Errorf("%s: cutting every edge left %d ⊥ nodes", name, all.BottomCount())
		}
	}
}

// TestResolveCutEquivalenceRandom extends the sweep to the fuzzer
// corpus.
func TestResolveCutEquivalenceRandom(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 15
	}
	for seed := int64(0); seed < seeds; seed++ {
		src := randprog.Generate(seed, randprog.DefaultOptions)
		irp := usher.MustCompile("rand.c", src)
		pa := pointer.Analyze(irp)
		mem := memssa.Build(irp, pa)
		g := vfg.Build(irp, pa, mem, vfg.Options{})
		for _, k := range []int{2, 7} {
			checkCutEquivalence(t, src, g, randomCut(int(seed), k))
		}
	}
}
