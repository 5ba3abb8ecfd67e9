package instrument_test

import (
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/instrument"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/vfg"
)

// guidedPlan builds the guided plan (no optimizations) for src.
func guidedPlan(t *testing.T, src string) (*ir.Program, *instrument.Plan) {
	t.Helper()
	prog := usher.MustCompile("t.c", src)
	pa := pointer.Analyze(prog)
	mem := memssa.Build(prog, pa)
	g := vfg.Build(prog, pa, mem, vfg.Options{})
	gm := vfg.Resolve(g)
	res := instrument.Emit("test", g, gm, 0, instrument.GuidedOptions{})
	return prog, res.Plan
}

// itemsOfKind collects (instr, item) pairs of one kind in fn.
func itemsOfKind(plan *instrument.Plan, fn *ir.Function, kind instrument.ItemKind) []ir.Instr {
	fp := plan.FnPlanOf(fn)
	var out []ir.Instr
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			for _, it := range fp.Items[in.Label()] {
				if it.Kind == kind {
					out = append(out, in)
				}
			}
		}
	}
	return out
}

// Figure 7, [⊥-Load]: a load that may yield an undefined value gets
// σ(x) := σ(*y), and the allocation feeding it gets its memory shadow
// initialized ([⊥-Alloc] σ(*x) := F).
func TestRuleBottomLoadAndAlloc(t *testing.T) {
	prog, plan := guidedPlan(t, `
int main() {
  int *p = malloc(2);
  int v = p[1];
  if (v) { return 1; }
  return 0;
}`)
	main := prog.FuncByName("main")
	if n := len(itemsOfKind(plan, main, instrument.PropLoad)); n != 1 {
		t.Errorf("PropLoad items = %d, want 1", n)
	}
	memsets := itemsOfKind(plan, main, instrument.MemSetF)
	if len(memsets) != 1 {
		t.Fatalf("MemSetF items = %d, want 1 (at the alloc)", len(memsets))
	}
	if _, isAlloc := memsets[0].(*ir.Alloc); !isAlloc {
		t.Errorf("MemSetF attached to %T, want Alloc", memsets[0])
	}
	if n := len(itemsOfKind(plan, main, instrument.CheckVal)); n != 1 {
		t.Errorf("CheckVal items = %d, want 1 (the branch)", n)
	}
}

// [⊤-Check]: critical operations on provably defined values get no check
// and no shadow work at all.
func TestRuleTopCheckEmitsNothing(t *testing.T) {
	prog, plan := guidedPlan(t, `
int main() {
  int v = 3;
  if (v) { print(v); }
  return 0;
}`)
	main := prog.FuncByName("main")
	fp := plan.FnPlanOf(main)
	total := 0
	for _, items := range fp.Items {
		total += len(items)
	}
	if total != 0 {
		t.Errorf("items = %d, want 0 for a trivially defined program", total)
	}
}

// [⊥-Store_*]: the stored value's shadow is written to memory and the
// value is tracked.
func TestRuleBottomStore(t *testing.T) {
	prog, plan := guidedPlan(t, `
int taint() { int *p = malloc(1); return p[0]; }
int main() {
  int *buf = malloc(1);
  buf[0] = taint();       // stores a ⊥ value
  int v = buf[0];
  print(v);
  return 0;
}`)
	main := prog.FuncByName("main")
	stores := itemsOfKind(plan, main, instrument.PropStore)
	if len(stores) != 1 {
		t.Fatalf("PropStore items = %d, want 1", len(stores))
	}
	if _, isStore := stores[0].(*ir.Store); !isStore {
		t.Errorf("PropStore attached to %T", stores[0])
	}
}

// [⊤-Store_SU]: a strong update to a concrete location whose version a
// demanded (possibly aliasing) load may read writes σ(*x) := T once, with
// no value tracking. The demand arises because the ⊥ load's mu set covers
// both the undefined heap cell and the strongly updated stack cell.
func TestRuleTopStoreStrongUpdate(t *testing.T) {
	prog, plan := guidedPlan(t, `
int main(int c) {
  int a;
  int *p = malloc(1);
  int *q;
  if (c) { q = &a; } else { q = p; }
  a = 5;            // strong update of the concrete stack cell
  int v = *q;       // may read a (⊤, strong) or *p (⊥)
  if (v) { return 1; }
  return 0;
}`)
	main := prog.FuncByName("main")
	foundSU := false
	for _, in := range itemsOfKind(plan, main, instrument.MemSetT) {
		if _, ok := in.(*ir.Store); ok {
			foundSU = true
		}
	}
	if !foundSU {
		t.Error("no MemSetT at the strong-update store of a")
	}
	// The ⊤ strong-update store must not track the stored value's shadow.
	for _, in := range itemsOfKind(plan, main, instrument.PropStore) {
		if _, ok := in.(*ir.Store); ok {
			t.Error("⊤ strong-update store should not propagate the value's shadow")
		}
	}
	if n := len(itemsOfKind(plan, main, instrument.PropLoad)); n != 1 {
		t.Errorf("PropLoad items = %d, want 1 (the aliasing load)", n)
	}
}

// When a ⊤ value is demanded only as a ⊤ operand of a ⊥ computation, no
// memory work is generated at all: unshadowed registers are implicitly T.
func TestRuleTopOperandIsFree(t *testing.T) {
	prog, plan := guidedPlan(t, `
int flag;
int main(int c) {
  int *p = malloc(1);
  flag = c;
  int u = p[0] + flag;   // flag's side is ⊤: implicit T, no tracking
  if (u) { return 1; }
  return 0;
}`)
	main := prog.FuncByName("main")
	for _, in := range itemsOfKind(plan, main, instrument.MemSetT) {
		if st, ok := in.(*ir.Store); ok {
			if _, isGlobal := st.Addr.(*ir.GlobalAddr); isGlobal {
				t.Error("⊤-only global flow should need no shadow write at all")
			}
		}
	}
}

// [⊥-Para]/[⊥-Ret]: undefined values crossing function boundaries set the
// relay flags.
func TestRuleParamAndReturnRelay(t *testing.T) {
	prog, plan := guidedPlan(t, `
int id(int x) { return x; }
int main() {
  int *p = malloc(1);
  int v = id(p[0]);
  if (v) { return 1; }
  return 0;
}`)
	id := prog.FuncByName("id")
	fp := plan.FnPlanOf(id)
	if len(fp.ParamRecv) != 1 || !fp.ParamRecv[0] {
		t.Errorf("id.ParamRecv = %v, want [true]", fp.ParamRecv)
	}
	if !fp.RetSend {
		t.Error("id.RetSend = false, want true")
	}
}

// ⊤ functions need no relays at all.
func TestRuleNoRelayForDefinedFlows(t *testing.T) {
	prog, plan := guidedPlan(t, `
int id(int x) { return x; }
int main() {
  int v = id(5);
  if (v) { return 1; }
  return 0;
}`)
	id := prog.FuncByName("id")
	fp := plan.FnPlanOf(id)
	if fp.ParamRecv[0] || fp.RetSend {
		t.Errorf("relays set for an all-⊤ function: recv=%v ret=%v", fp.ParamRecv, fp.RetSend)
	}
}

// Values never reaching a critical operation need no tracking even when
// undefined ("a value that is never used at any critical operation does
// not need to be tracked", §1).
func TestRuleNoTrackingWithoutCriticalUse(t *testing.T) {
	prog, plan := guidedPlan(t, `
int sink;
int main() {
  int *p = malloc(1);
  sink = p[0];     // undefined value stored to a global, never branched on
  return 0;
}`)
	main := prog.FuncByName("main")
	fp := plan.FnPlanOf(main)
	for label, items := range fp.Items {
		for _, it := range items {
			if it.Kind == instrument.CheckVal {
				t.Errorf("unexpected check at l%d", label)
			}
		}
	}
}
