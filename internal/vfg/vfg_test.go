package vfg_test

import (
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/vfg"
)

func build(t *testing.T, src string, opts vfg.Options) (*ir.Program, *vfg.Graph, *vfg.Gamma) {
	t.Helper()
	irp := usher.MustCompile("t.c", src)
	pa := pointer.Analyze(irp)
	mem := memssa.Build(irp, pa)
	g := vfg.Build(irp, pa, mem, opts)
	gm := vfg.Resolve(g)
	return irp, g, gm
}

// loadStates returns the Γ state of every load destination in fn.
func loadStates(g *vfg.Graph, gm *vfg.Gamma, fn *ir.Function) []vfg.State {
	var states []vfg.State
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if l, ok := in.(*ir.Load); ok {
				states = append(states, gm.Of(g.RegNode(l.Dst)))
			}
		}
	}
	return states
}

func TestFullyDefinedProgram(t *testing.T) {
	irp, g, gm := build(t, `
int g_var = 1;
int add(int a, int b) { return a + b; }
int main() {
  int x = add(g_var, 2);
  int *p = malloc(1);
  *p = x;
  return *p;
}`, vfg.Options{})
	for _, st := range loadStates(g, gm, irp.FuncByName("main")) {
		if st != vfg.Top {
			t.Errorf("load state = %v, want ⊤ (everything is defined)", st)
		}
	}
}

func TestUninitializedHeapIsBottom(t *testing.T) {
	irp, g, gm := build(t, `
int main() {
  int *p = malloc(2);
  return p[1];
}`, vfg.Options{})
	states := loadStates(g, gm, irp.FuncByName("main"))
	bottom := false
	for _, st := range states {
		if st == vfg.Bottom {
			bottom = true
		}
	}
	if !bottom {
		t.Error("load of uninitialized heap must be ⊥")
	}
}

func TestStrongUpdateKillsUndef(t *testing.T) {
	irp, g, gm := build(t, `
int main() {
  int a;
  int *p = &a;
  *p = 1;
  return a;
}`, vfg.Options{})
	// The load of a (the final return) must be ⊤: the store strongly
	// updates the concrete stack cell.
	states := loadStates(g, gm, irp.FuncByName("main"))
	for _, st := range states {
		if st != vfg.Top {
			t.Errorf("load after strong update = %v, want ⊤", st)
		}
	}
	// And the chi must be classified strong.
	found := false
	for _, kind := range g.StoreUpdates {
		if kind == vfg.UpdateStrong {
			found = true
		}
	}
	if !found {
		t.Errorf("no strong update recorded: %v", g.StoreUpdates)
	}
}

func TestWeakUpdateKeepsUndef(t *testing.T) {
	irp, g, gm := build(t, `
int main(int c) {
  int a;
  int b;
  int *q;
  if (c) { q = &a; } else { q = &b; }
  *q = 1;
  return a;     // may still be undefined (q may have targeted b)
}`, vfg.Options{})
	states := loadStates(g, gm, irp.FuncByName("main"))
	bottom := false
	for _, st := range states {
		if st == vfg.Bottom {
			bottom = true
		}
	}
	if !bottom {
		t.Error("load after weak update over {a,b} must stay ⊥")
	}
	multi := false
	for _, kind := range g.StoreUpdates {
		if kind == vfg.UpdateWeakMulti {
			multi = true
		}
	}
	if !multi {
		t.Errorf("store not classified weak-multi: %v", g.StoreUpdates)
	}
}

func TestSemiStrongUpdateFigure6(t *testing.T) {
	// The Figure 6 pattern: a heap object allocated and immediately
	// initialized inside a function called many times. A weak update
	// would leave the load ⊥ forever; the semi-strong update bypasses the
	// allocation's F.
	src := `
int foo() {
  int *q = malloc(1);
  *q = 0;
  return *q;
}
int main() { foo(); return foo(); }`

	// With semi-strong updates (default): the load is ⊤.
	irp, g, gm := build(t, src, vfg.Options{})
	for _, st := range loadStates(g, gm, irp.FuncByName("foo")) {
		if st != vfg.Top {
			t.Errorf("with semi-strong updates: load = %v, want ⊤", st)
		}
	}
	if g.SemiStrongCuts == 0 {
		t.Error("semi-strong rule never applied")
	}

	// Ablation: disabling semi-strong updates loses the result.
	irp2, g2, gm2 := build(t, src, vfg.Options{NoSemiStrong: true})
	bottom := false
	for _, st := range loadStates(g2, gm2, irp2.FuncByName("foo")) {
		if st == vfg.Bottom {
			bottom = true
		}
	}
	if !bottom {
		t.Error("without semi-strong updates the load should be ⊥ (weak update keeps alloc_F)")
	}
}

func TestContextSensitivity(t *testing.T) {
	irp, g, gm := build(t, `
int id(int x) { return x; }
int main(int c) {
  int u;
  if (c) { u = 1; }
  int a = id(u);   // undefined may enter here
  int b = id(5);   // but not here
  if (a) { print(1); }
  if (b) { print(2); }
  return 0;
}`, vfg.Options{})
	main := irp.FuncByName("main")
	// Find the two call results.
	var results []*ir.Register
	for _, blk := range main.Blocks {
		for _, in := range blk.Instrs {
			if call, ok := in.(*ir.Call); ok && call.Direct() != nil && call.Direct().Name == "id" {
				results = append(results, call.Dst)
			}
		}
	}
	if len(results) != 2 {
		t.Fatalf("found %d calls to id, want 2", len(results))
	}
	if st := gm.Of(g.RegNode(results[0])); st != vfg.Bottom {
		t.Errorf("id(u) = %v, want ⊥", st)
	}
	if st := gm.Of(g.RegNode(results[1])); st != vfg.Top {
		t.Errorf("id(5) = %v, want ⊤ (context-sensitive resolution)", st)
	}
}

func TestTopLevelOnlyIsConservative(t *testing.T) {
	irp, g, gm := build(t, `
int main() {
  int *p = calloc(1);
  return *p;      // defined, but Usher_TL cannot see it
}`, vfg.Options{TopLevelOnly: true})
	states := loadStates(g, gm, irp.FuncByName("main"))
	for _, st := range states {
		if st != vfg.Bottom {
			t.Errorf("TL-only load = %v, want ⊥ (loads are untracked)", st)
		}
	}
	_ = irp
}

func TestInterproceduralUndefThroughHeap(t *testing.T) {
	irp, g, gm := build(t, `
int *make() { return malloc(1); }
int use(int *p) { return *p; }
int main() {
  int *p = make();
  return use(p);
}`, vfg.Options{})
	states := loadStates(g, gm, irp.FuncByName("use"))
	bottom := false
	for _, st := range states {
		if st == vfg.Bottom {
			bottom = true
		}
	}
	if !bottom {
		t.Error("use() loads uninitialized heap; must be ⊥")
	}
}

func TestCallocInterprocedurallyDefined(t *testing.T) {
	irp, g, gm := build(t, `
int *make() { return calloc(4); }
int use(int *p) { return p[2]; }
int main() {
  int *p = make();
  return use(p);
}`, vfg.Options{})
	for _, st := range loadStates(g, gm, irp.FuncByName("use")) {
		if st != vfg.Top {
			t.Errorf("use() loads calloc'd memory = %v, want ⊤", st)
		}
	}
}

func TestGlobalsDefined(t *testing.T) {
	irp, g, gm := build(t, `
int g1;
int g2 = 7;
int main() { return g1 + g2; }`, vfg.Options{})
	for _, st := range loadStates(g, gm, irp.FuncByName("main")) {
		if st != vfg.Top {
			t.Errorf("global load = %v, want ⊤ (globals are default-initialized)", st)
		}
	}
}

func TestGlobalThroughCallChain(t *testing.T) {
	irp, g, gm := build(t, `
int acc;
void add(int v) { acc = acc + v; }
int total() { return acc; }
int main() {
  add(1);
  add(2);
  return total();
}`, vfg.Options{})
	for _, st := range loadStates(g, gm, irp.FuncByName("total")) {
		if st != vfg.Top {
			t.Errorf("total() = %v, want ⊤", st)
		}
	}
}

func TestReachesCritical(t *testing.T) {
	irp, g, _ := build(t, `
int main() {
  int a = 1;
  int b = a + 2;     // flows into the branch: needs tracking
  int dead = a * 3;  // flows nowhere critical
  if (b) { return 1; }
  return 0;
}`, vfg.Options{})
	reach := vfg.ReachesCritical(g)
	main := irp.FuncByName("main")
	var bReach, deadReach bool
	for _, blk := range main.Blocks {
		for _, in := range blk.Instrs {
			bin, ok := in.(*ir.BinOp)
			if !ok {
				continue
			}
			n := g.RegNode(bin.Dst)
			switch bin.Op {
			case ir.OpAdd:
				bReach = reach[n]
			case ir.OpMul:
				deadReach = reach[n]
			}
		}
	}
	if !bReach {
		t.Error("b flows into a branch and must reach a critical node")
	}
	if deadReach {
		t.Error("dead value must not reach any critical node")
	}
}

func TestMissingReturnBottom(t *testing.T) {
	irp, g, gm := build(t, `
int f(int c) { if (c) { return 1; } }
int main() {
  int v = f(0);
  if (v) { return 1; }
  return 0;
}`, vfg.Options{})
	main := irp.FuncByName("main")
	for _, blk := range main.Blocks {
		for _, in := range blk.Instrs {
			if call, ok := in.(*ir.Call); ok && call.Dst != nil {
				if st := gm.Of(g.RegNode(call.Dst)); st != vfg.Bottom {
					t.Errorf("missing-return result = %v, want ⊥", st)
				}
			}
		}
	}
}
