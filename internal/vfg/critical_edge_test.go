package vfg_test

import (
	"testing"

	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/vfg"
)

// These tables pin CriticalUses/ReachesCritical on the control-flow
// shapes the dominance-based optimizations trip over: zero-trip loops
// (the body may never run, yet its values and uses are part of the
// graph) and statically unreachable blocks (never executed, still
// walked — both functions are conservative over the whole CFG, and the
// instrumentation planner relies on that).

// mulMarker finds the VFG node of the unique `x * K` marker in the
// program; tests tag values of interest with distinct multipliers.
func mulMarker(t *testing.T, irp *ir.Program, g *vfg.Graph, k int64) vfg.NodeID {
	t.Helper()
	for _, fn := range irp.Funcs {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				bin, ok := in.(*ir.BinOp)
				if !ok || bin.Op != ir.OpMul {
					continue
				}
				if c, isConst := bin.Y.(*ir.Const); isConst && c.Val == k {
					n := g.RegNode(bin.Dst)
					if n == vfg.NoNode {
						t.Fatalf("marker *%d has no VFG node", k)
					}
					return n
				}
			}
		}
	}
	t.Fatalf("no *%d marker in program", k)
	return vfg.NoNode
}

// TestReachesCriticalEdgeCases drives both functions over zero-trip
// loops and unreachable blocks.
func TestReachesCriticalEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		src  string
		// markers maps a `* K` tag to whether the tagged value must
		// reach a critical use.
		markers map[int64]bool
	}{
		{
			// A while loop that may run zero times: the induction value
			// feeds the loop branch (critical) through the header phi;
			// values that only circulate through the body and the return
			// reach nothing critical.
			name: "zero-trip-while",
			src: `
int main(int c) {
  int i = c * 3;
  int acc = c * 5;
  int dead = c * 7;
  while (i) { i = i - 1; acc = acc + 1; }
  return acc + dead;
}`,
			markers: map[int64]bool{3: true, 5: false, 7: false},
		},
		{
			// The loop body never runs (constant-false condition), so the
			// body is dynamically dead — but its print is still a critical
			// use and the printed value must be marked for tracking.
			name: "zero-trip-dead-body",
			src: `
int main(int c) {
  int x = c * 3;
  int quiet = c * 5;
  while (0) { print(x); }
  return x + quiet;
}`,
			markers: map[int64]bool{3: true, 5: false},
		},
		{
			// A statically unreachable then-block: ReachesCritical walks
			// the whole CFG, so the value printed inside it still reaches
			// a critical use (conservative inclusion).
			name: "unreachable-then-block",
			src: `
int main(int c) {
  int x = c * 3;
  int y = c * 5;
  if (0) { print(x); }
  return x + y;
}`,
			markers: map[int64]bool{3: true, 5: false},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			irp, g, _ := build(t, tc.src, vfg.Options{})
			reach := vfg.ReachesCritical(g)
			for k, want := range tc.markers {
				n := mulMarker(t, irp, g, k)
				if got := reach[n]; got != want {
					t.Errorf("marker *%d: ReachesCritical = %v, want %v", k, got, want)
				}
			}
		})
	}
}

// TestCriticalUsesInDeadCode pins the conservative contract directly:
// critical instructions inside never-executed blocks (a zero-trip loop
// body and a constant-false branch) are still collected, each attached
// to the node it uses.
func TestCriticalUsesInDeadCode(t *testing.T) {
	irp, g, _ := build(t, `
int main(int c) {
  int x = c * 3;
  while (0) { print(x); }
  if (0) { free(malloc(1)); }
  return x;
}`, vfg.Options{})
	uses := vfg.CriticalUses(g)
	n := mulMarker(t, irp, g, 3)
	var sawPrint bool
	for _, in := range uses[n] {
		if call, ok := in.(*ir.Call); ok && call.Builtin == ir.BuiltinPrint {
			sawPrint = true
		}
	}
	if !sawPrint {
		t.Error("print(x) in the zero-trip loop body was not collected as a critical use of x")
	}
	// The free() in the unreachable branch must appear as a critical use
	// of the malloc'd pointer.
	var sawFree bool
	for _, ins := range uses {
		for _, in := range ins {
			if call, ok := in.(*ir.Call); ok && call.Builtin == ir.BuiltinFree {
				sawFree = true
			}
		}
	}
	if !sawFree {
		t.Error("free() in the unreachable branch was not collected as a critical use")
	}
}

// TestZeroTripLoopGammaBottom pins the semantic companion: a variable
// assigned only inside a zero-trip-able loop is ⊥ at its post-loop
// critical use (the loop may not run), and ReachesCritical marks it.
func TestZeroTripLoopGammaBottom(t *testing.T) {
	irp, g, gm := build(t, `
int main(int c) {
  int u;
  while (c) { u = 1; c = 0; }
  print(u);
  return 0;
}`, vfg.Options{})
	reach := vfg.ReachesCritical(g)
	var checked int
	for _, fn := range irp.Funcs {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				call, ok := in.(*ir.Call)
				if !ok || call.Builtin != ir.BuiltinPrint {
					continue
				}
				r, ok := call.Args[0].(*ir.Register)
				if !ok {
					t.Fatal("print argument is not a register")
				}
				n := g.RegNode(r)
				if n == vfg.NoNode {
					t.Fatal("print argument has no VFG node")
				}
				checked++
				if gm.Of(n) != vfg.Bottom {
					t.Error("u is ⊤ at print(u) despite the zero-trip path")
				}
				if !reach[n] {
					t.Error("printed value does not reach a critical use")
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("test premise broken: no print call found")
	}
}
