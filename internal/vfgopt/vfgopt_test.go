package vfgopt_test

import (
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/vfg"
	"github.com/valueflow/usher/internal/vfgopt"
)

func build(t *testing.T, src string) (*ir.Program, *vfg.Graph, *vfg.Gamma) {
	t.Helper()
	irp := usher.MustCompile("t.c", src)
	pa := pointer.Analyze(irp)
	mem := memssa.Build(irp, pa)
	g := vfg.Build(irp, pa, mem, vfg.Options{})
	return irp, g, vfg.Resolve(g)
}

// findRetReg returns the register returned from fn's first value return.
func findRetReg(t *testing.T, irp *ir.Program, fn string) *ir.Register {
	t.Helper()
	f := irp.FuncByName(fn)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if r, ok := in.(*ir.Ret); ok && r.Val != nil {
				if reg, ok := r.Val.(*ir.Register); ok {
					return reg
				}
			}
		}
	}
	t.Fatalf("no register return in %s", fn)
	return nil
}

func TestMFCChain(t *testing.T) {
	irp, _, _ := build(t, `
int f(int x) {
  int a = x + 1;
  int b = a * 2;
  int c = b - 3;
  return c;
}
int main() { return f(4); }`)
	c := findRetReg(t, irp, "f")
	m := vfgopt.ComputeMFC(c)
	// Closure: c, b, a, x (x is the source: a parameter).
	if len(m.All) != 4 {
		t.Fatalf("closure size = %d, want 4: %v", len(m.All), m.All)
	}
	if len(m.Sources) != 1 || m.Sources[0].Name != "x" {
		t.Fatalf("sources = %v, want [x]", m.Sources)
	}
	if m.Interior != 3 {
		t.Fatalf("interior = %d, want 3", m.Interior)
	}
	if !m.Simplified() {
		t.Fatal("chain should be simplifiable")
	}
}

func TestMFCDiamondDAG(t *testing.T) {
	irp, _, _ := build(t, `
int f(int x, int y) {
  int a = x + y;
  int b = a * 2;
  int c = a - 1;
  int d = b + c;
  return d;
}
int main() { return f(1, 2); }`)
	d := findRetReg(t, irp, "f")
	m := vfgopt.ComputeMFC(d)
	// d, b, c, a, x, y — a visited once despite two paths.
	if len(m.All) != 6 {
		t.Fatalf("closure size = %d, want 6: %v", len(m.All), m.All)
	}
	if len(m.Sources) != 2 {
		t.Fatalf("sources = %v, want {x, y}", m.Sources)
	}
}

func TestMFCStopsAtLoadsAndCalls(t *testing.T) {
	irp, _, _ := build(t, `
int g(int v) { return v; }
int f(int *p) {
  int a = *p;        // load: a source
  int b = g(a);      // call: a source
  int c = a + b;
  return c;
}
int main() { int x = 1; return f(&x); }`)
	c := findRetReg(t, irp, "f")
	m := vfgopt.ComputeMFC(c)
	if len(m.Sources) != 2 {
		t.Fatalf("sources = %v, want load+call results", m.Sources)
	}
	for _, s := range m.Sources {
		switch s.Def.(type) {
		case *ir.Load, *ir.Call:
		default:
			t.Errorf("source %s defined by %T, want load or call", s, s.Def)
		}
	}
}

func TestMFCBottomSources(t *testing.T) {
	irp, g, gm := build(t, `
int main() {
  int *p = malloc(1);
  int a = *p;        // ⊥ source
  int b = 7;         // ⊤ source (constant copy)
  int c = a + b;
  if (c) { return 1; }
  return 0;
}`)
	main := irp.FuncByName("main")
	var c *ir.Register
	for _, blk := range main.Blocks {
		for _, in := range blk.Instrs {
			if bin, ok := in.(*ir.BinOp); ok && bin.Op == ir.OpAdd {
				c = bin.Dst
			}
		}
	}
	m := vfgopt.ComputeMFC(c)
	bottom := m.BottomSources(g, gm)
	if len(bottom) != 1 {
		t.Fatalf("bottom sources = %v, want exactly the load", bottom)
	}
	if _, isLoad := bottom[0].Def.(*ir.Load); !isLoad {
		t.Fatalf("bottom source defined by %T, want load", bottom[0].Def)
	}
}

func TestRedundantCheckElimFigure9(t *testing.T) {
	// Figure 9's shape: c1 = a1 ∧ b1 checked at l1; e1 = b1 ∧ d1 checked
	// at l2, l1 dominating l2. After Opt II, e1 must resolve to ⊤.
	irp, g, gm := build(t, `
int main() {
  int *src = malloc(1);
  int b = *src;          // the undefined source
  int a = 3;
  int c = a + b;
  print(c);              // l1: detects b if undefined
  int d = 0;
  int e = b + d;
  if (e) { return 1; }   // l2: redundant given l1
  return 0;
}`)
	gm2, redirected := vfgopt.RedundantCheckElim(g, gm)
	if redirected == 0 {
		t.Fatal("Opt II redirected nothing")
	}
	// Find e (the second add) and check its new state.
	main := irp.FuncByName("main")
	var adds []*ir.Register
	for _, blk := range main.Blocks {
		for _, in := range blk.Instrs {
			if bin, ok := in.(*ir.BinOp); ok && bin.Op == ir.OpAdd {
				adds = append(adds, bin.Dst)
			}
		}
	}
	if len(adds) < 2 {
		t.Fatalf("adds = %v", adds)
	}
	e := adds[len(adds)-1]
	if gm.Of(g.RegNode(e)) != vfg.Bottom {
		t.Fatal("test premise broken: e should be ⊥ before Opt II")
	}
	if gm2.Of(g.RegNode(e)) != vfg.Top {
		t.Error("e should be ⊤ after Opt II (check at l2 eliminated)")
	}
	// c must remain ⊥ (its check is the one that reports).
	c := adds[0]
	if gm2.Of(g.RegNode(c)) != vfg.Bottom {
		t.Error("c must stay ⊥: its check performs the detection")
	}
}

func TestRedundantCheckElimRespectsDominance(t *testing.T) {
	// The second use is NOT dominated by the first (they are in sibling
	// branches), so no cut may happen between them.
	_, g, gm := build(t, `
int main(int sel) {
  int *src = malloc(1);
  int b = *src;
  if (sel) {
    int c = b + 1;
    print(c);
  } else {
    int e = b * 2;
    if (e) { return 1; }
  }
  return 0;
}`)
	gm2, _ := vfgopt.RedundantCheckElim(g, gm)
	// Both uses must remain ⊥: neither dominates the other.
	bottoms := 0
	for i, nd := range g.Nodes {
		n := vfg.NodeID(i)
		if nd.Kind == vfg.NodeReg && gm.Of(n) == vfg.Bottom {
			if gm2.Of(n) == vfg.Top {
				// A node was upgraded; ensure it is not one of the two
				// checked values by checking overall: in this program no
				// upgrade is legal for checked nodes.
				for _, in := range vfg.CriticalUses(g)[n] {
					t.Errorf("checked node %v upgraded despite no dominance (use at l%d)", nd, in.Label())
				}
			}
			bottoms++
		}
	}
	if bottoms == 0 {
		t.Fatal("test premise broken: no ⊥ nodes")
	}
}

func TestMFCNonChainNotSimplified(t *testing.T) {
	irp, _, _ := build(t, `
int f(int *p) { return *p; }
int main() { int x = 2; return f(&x); }`)
	r := findRetReg(t, irp, "f")
	m := vfgopt.ComputeMFC(r)
	if m.Simplified() {
		t.Errorf("a bare load has no interior to simplify: %+v", m)
	}
}
