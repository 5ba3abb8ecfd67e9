package vfgsum_test

import (
	"fmt"
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/randprog"
	"github.com/valueflow/usher/internal/vfg"
	"github.com/valueflow/usher/internal/vfgsum"
	"github.com/valueflow/usher/internal/workload"
)

func buildGraph(t *testing.T, name, src string) *vfg.Graph {
	t.Helper()
	irp := usher.MustCompile(name, src)
	pa := pointer.Analyze(irp)
	mem := memssa.Build(irp, pa)
	return vfg.Build(irp, pa, mem, vfg.Options{})
}

func buildGraphTL(t *testing.T, name, src string) *vfg.Graph {
	t.Helper()
	irp := usher.MustCompile(name, src)
	pa := pointer.Analyze(irp)
	mem := memssa.Build(irp, pa)
	return vfg.Build(irp, pa, mem, vfg.Options{TopLevelOnly: true})
}

// requireSameGamma fails unless the two Γs agree on every node.
func requireSameGamma(t *testing.T, g *vfg.Graph, dense, sum *vfg.Gamma, label string) {
	t.Helper()
	for i, nd := range g.Nodes {
		n := vfg.NodeID(i)
		if dense.Of(n) != sum.Of(n) {
			t.Fatalf("%s: node %v: dense %v, summary %v", label, nd, dense.Of(n), sum.Of(n))
		}
	}
	db, sb := dense.BottomBits(), sum.BottomBits()
	if !db.Equal(sb) {
		t.Fatalf("%s: ⊥ bit vectors differ (dense %d vs summary %d bits)",
			label, db.Count(), sb.Count())
	}
}

// TestSummaryGammaIdenticalOnWorkloads pins summary resolution against
// the dense resolver on the workload benchmarks, both graph variants.
func TestSummaryGammaIdenticalOnWorkloads(t *testing.T) {
	for _, p := range workload.Profiles {
		src := workload.Generate(p)
		for _, tl := range []bool{false, true} {
			var g *vfg.Graph
			if tl {
				g = buildGraphTL(t, p.Name+".c", src)
			} else {
				g = buildGraph(t, p.Name+".c", src)
			}
			sum := vfgsum.Build(g)
			requireSameGamma(t, g, vfg.Resolve(g), sum.Resolve(),
				fmt.Sprintf("%s tl=%v", p.Name, tl))
			if sum.Supernodes() >= len(g.Nodes) {
				t.Errorf("%s tl=%v: condensation is vacuous (%d supernodes for %d nodes)",
					p.Name, tl, sum.Supernodes(), len(g.Nodes))
			}
		}
	}
}

// TestSummaryGammaIdenticalOnRandomPrograms extends the identity to the
// fuzzer corpus.
func TestSummaryGammaIdenticalOnRandomPrograms(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 50
	}
	for seed := 0; seed < seeds; seed++ {
		src := randprog.Generate(int64(seed), randprog.DefaultOptions)
		irp, err := usher.Compile("rand.c", src)
		if err != nil {
			continue
		}
		pa := pointer.Analyze(irp)
		mem := memssa.Build(irp, pa)
		g := vfg.Build(irp, pa, mem, vfg.Options{})
		requireSameGamma(t, g, vfg.Resolve(g), vfgsum.Build(g).Resolve(),
			fmt.Sprintf("seed %d", seed))
	}
}

// TestSummaryResolveCutIdentical pins the cut-aware path (Opt II's
// re-resolution) against vfg.ResolveCut under a spread of synthetic cut
// predicates.
func TestSummaryResolveCutIdentical(t *testing.T) {
	cuts := []struct {
		name string
		cut  func(from, to vfg.NodeID) bool
	}{
		{"none", func(from, to vfg.NodeID) bool { return false }},
		{"mod3", func(from, to vfg.NodeID) bool { return (from+to)%3 == 0 }},
		{"mod7", func(from, to vfg.NodeID) bool { return from%7 == 2 }},
		{"roots", func(from, to vfg.NodeID) bool { return to == vfg.RootF && from%2 == 0 }},
	}
	for seed := 0; seed < 40; seed++ {
		src := randprog.Generate(int64(seed), randprog.DefaultOptions)
		irp, err := usher.Compile("rand.c", src)
		if err != nil {
			continue
		}
		pa := pointer.Analyze(irp)
		mem := memssa.Build(irp, pa)
		g := vfg.Build(irp, pa, mem, vfg.Options{})
		for _, c := range cuts {
			requireSameGamma(t, g, vfg.ResolveCut(g, c.cut), vfgsum.ResolveCut(g, c.cut),
				fmt.Sprintf("seed %d cut %s", seed, c.name))
		}
	}
}

// TestSummaryDeterministicAcrossWorkers pins the build's deterministic
// counters and the resolved Γ at every condensation worker count.
func TestSummaryDeterministicAcrossWorkers(t *testing.T) {
	p := workload.Profiles[0]
	g := buildGraph(t, p.Name+".c", workload.Generate(p))
	defer func(w int) { vfgsum.Workers = w }(vfgsum.Workers)

	vfgsum.Workers = 1
	base := vfgsum.Build(g)
	baseGamma := base.Resolve()
	for _, w := range []int{2, 4, 8} {
		vfgsum.Workers = w
		sum := vfgsum.Build(g)
		if sum.Stats != base.Stats {
			t.Fatalf("workers=%d: stats %+v differ from sequential %+v", w, sum.Stats, base.Stats)
		}
		requireSameGamma(t, g, baseGamma, sum.Resolve(), fmt.Sprintf("workers=%d", w))
	}
}

// TestSummaryStatsMeaningful spot-checks that condensation actually
// collapses something on a program with loops and pass-through chains.
func TestSummaryStatsMeaningful(t *testing.T) {
	src := `
int chain3(int x) { int a = x; int b = a; int c = b; return c; }
int loopy(int n) {
  int acc = n;
  while (n > 0) { acc = acc + n; n = n - 1; }
  return acc;
}
int main(int c) {
  int u;
  if (c) { u = 1; }
  int a = chain3(u);
  int b = loopy(a);
  print(b);
  return 0;
}`
	g := buildGraph(t, "stats.c", src)
	sum := vfgsum.Build(g)
	st := sum.Stats
	if st.Supernodes <= 0 || st.Supernodes >= len(g.Nodes) {
		t.Errorf("supernodes = %d for %d nodes; expected a real condensation", st.Supernodes, len(g.Nodes))
	}
	if st.SCCsCollapsed == 0 {
		t.Errorf("no SCCs collapsed despite the loop-carried dependence")
	}
	if st.ChainsCollapsed == 0 {
		t.Errorf("no chains collapsed despite the pass-through chain")
	}
	if st.Ports == 0 || st.BoundaryEdges == 0 {
		t.Errorf("ports=%d boundary=%d; interprocedural structure missing", st.Ports, st.BoundaryEdges)
	}
	requireSameGamma(t, g, vfg.Resolve(g), sum.Resolve(), "stats.c")
}
