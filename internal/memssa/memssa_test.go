package memssa_test

import (
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/pointer"
)

func build(t *testing.T, src string) (*ir.Program, *memssa.Info) {
	t.Helper()
	irp := usher.MustCompile("t.c", src)
	pa := pointer.Analyze(irp)
	return irp, memssa.Build(irp, pa)
}

func TestLoadGetsMu(t *testing.T) {
	irp, info := build(t, `
int main() {
  int a;
  int *p = &a;
  *p = 1;
  return a;
}`)
	main := irp.FuncByName("main")
	fi := info.Funcs[main]
	var muCount, chiCount int
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			muCount += len(fi.Mus[in.Label()])
			chiCount += len(fi.Chis[in.Label()])
		}
	}
	if muCount == 0 {
		t.Errorf("no mu annotations:\n%s", ir.PrintFunc(main))
	}
	// chis: the alloca of a (+undef machinery if any) and the store.
	if chiCount < 2 {
		t.Errorf("chis = %d, want >= 2:\n%s", chiCount, ir.PrintFunc(main))
	}
}

func TestChiVersionsChain(t *testing.T) {
	irp, info := build(t, `
int main() {
  int a;
  int *p = &a;
  *p = 1;
  *p = 2;
  return a;
}`)
	main := irp.FuncByName("main")
	fi := info.Funcs[main]
	// Find the two store chis of variable a; the second's Prev must be the
	// first's def.
	var chis []*memssa.Def
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if _, ok := in.(*ir.Store); ok {
				for _, d := range fi.Chis[in.Label()] {
					if d.Var.Obj.Name == "a" {
						chis = append(chis, d)
					}
				}
			}
		}
	}
	if len(chis) != 2 {
		t.Fatalf("store chis of a = %d, want 2", len(chis))
	}
	if chis[1].Prev != chis[0] {
		t.Errorf("second chi's Prev = %v, want %v", chis[1].Prev, chis[0])
	}
	if chis[0].Version == chis[1].Version {
		t.Error("chi versions must differ")
	}
}

func TestMemPhiAtJoin(t *testing.T) {
	irp, info := build(t, `
int main(int c) {
  int a;
  int *p = &a;
  if (c) { *p = 1; } else { *p = 2; }
  return a;
}`)
	main := irp.FuncByName("main")
	fi := info.Funcs[main]
	total := 0
	for _, phis := range fi.Phis {
		for _, d := range phis {
			if d.Var.Obj.Name == "a" {
				total++
				if len(d.PhiArgs) != 2 {
					t.Errorf("phi args = %d, want 2", len(d.PhiArgs))
				}
				for _, a := range d.PhiArgs {
					if a == nil {
						t.Error("phi arg not filled")
					}
				}
			}
		}
	}
	if total == 0 {
		t.Errorf("no memory phi for a at the join:\n%s", ir.PrintFunc(main))
	}
}

func TestGlobalsAreVirtualParams(t *testing.T) {
	irp, info := build(t, `
int g;
void set(int v) { g = v; }
int get() { return g; }
int main() { set(3); return get(); }`)
	gObj := irp.Globals[0]
	set := info.Funcs[irp.FuncByName("set")]
	get := info.Funcs[irp.FuncByName("get")]
	mainFi := info.Funcs[irp.FuncByName("main")]

	hasVar := func(vs []memssa.MemVar, obj *ir.Object) bool {
		for _, v := range vs {
			if v.Obj == obj {
				return true
			}
		}
		return false
	}
	if !hasVar(set.OutVars, gObj) {
		t.Errorf("set OutVars = %v, want g", set.OutVars)
	}
	if !hasVar(get.InVars, gObj) {
		t.Errorf("get InVars = %v, want g", get.InVars)
	}
	// main transitively mods and refs g.
	if !hasVar(mainFi.OutVars, gObj) && !hasVar(mainFi.InVars, gObj) {
		t.Errorf("main virtual params missing g: in=%v out=%v", mainFi.InVars, mainFi.OutVars)
	}
	// The call to set in main must chi-define g; the call to get must
	// mu-use it.
	main := irp.FuncByName("main")
	var setChi, getMu bool
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			c, ok := in.(*ir.Call)
			if !ok {
				continue
			}
			if d := c.Direct(); d != nil {
				switch d.Name {
				case "set":
					for _, chi := range mainFi.Chis[c.Label()] {
						if chi.Var.Obj == gObj {
							setChi = true
						}
					}
				case "get":
					for _, mu := range mainFi.Mus[c.Label()] {
						if mu.Var.Obj == gObj {
							getMu = true
						}
					}
				}
			}
		}
	}
	if !setChi {
		t.Error("call to set() lacks chi for g")
	}
	if !getMu {
		t.Error("call to get() lacks mu for g")
	}
}

func TestOwnStackNotVirtualParam(t *testing.T) {
	irp, info := build(t, `
int main() {
  int a;
  int *p = &a;
  *p = 1;
  return a;
}`)
	fi := info.Funcs[irp.FuncByName("main")]
	for _, v := range fi.InVars {
		if v.Obj.Kind == ir.ObjStack {
			t.Errorf("own stack object %v is a virtual input param of non-recursive main", v)
		}
	}
}

func TestHeapAllocatedInCalleeIsOutputParam(t *testing.T) {
	irp, info := build(t, `
int *make() { int *p = malloc(2); p[0] = 1; return p; }
int main() { int *q = make(); return q[0]; }`)
	makeFi := info.Funcs[irp.FuncByName("make")]
	foundOut := false
	for _, v := range makeFi.OutVars {
		if v.Obj.Kind == ir.ObjHeap {
			foundOut = true
		}
	}
	if !foundOut {
		t.Errorf("heap object not in make's OutVars: %v", makeFi.OutVars)
	}
	// Per Figure 6 of the paper, a heap object allocated in the callee is
	// also a virtual *input* parameter (earlier calls' instances).
	foundIn := false
	for _, v := range makeFi.InVars {
		if v.Obj.Kind == ir.ObjHeap {
			foundIn = true
		}
	}
	if !foundIn {
		t.Errorf("heap object not in make's InVars: %v", makeFi.InVars)
	}
	// main's load q[0] must mu-use the heap variable.
	main := irp.FuncByName("main")
	mainFi := info.Funcs[main]
	found := false
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if _, ok := in.(*ir.Load); ok {
				for _, mu := range mainFi.Mus[in.Label()] {
					if mu.Var.Obj.Kind == ir.ObjHeap {
						found = true
					}
				}
			}
		}
	}
	if !found {
		t.Error("main's load of q[0] lacks mu on the heap variable")
	}
}

func TestRecursiveFunctionKeepsOwnStack(t *testing.T) {
	irp, info := build(t, `
int rec(int n) {
  int local;
  int *p = &local;
  *p = n;
  if (n == 0) { return *p; }
  return rec(n - 1) + *p;
}
int main() { return rec(3); }`)
	fi := info.Funcs[irp.FuncByName("rec")]
	found := false
	for _, v := range fi.InVars {
		if v.Obj.Kind == ir.ObjStack && v.Obj.Name == "local" {
			found = true
		}
	}
	if !found {
		t.Errorf("recursive function's stack object missing from InVars: %v", fi.InVars)
	}
}

func TestFieldSensitiveVersioning(t *testing.T) {
	irp, info := build(t, `
struct S { int a; int b; };
int main() {
  struct S s;
  s.a = 1;
  s.b = 2;
  return s.a;
}`)
	main := irp.FuncByName("main")
	fi := info.Funcs[main]
	// The two stores must chi different field variables.
	var fieldsSeen = map[int]bool{}
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if _, ok := in.(*ir.Store); ok {
				for _, chi := range fi.Chis[in.Label()] {
					if chi.Var.Obj.Name == "s" {
						fieldsSeen[chi.Var.Field] = true
					}
				}
			}
		}
	}
	if len(fieldsSeen) != 2 {
		t.Errorf("fields chi'd = %v, want 2 distinct fields", fieldsSeen)
	}
}

func TestRetVersions(t *testing.T) {
	irp, info := build(t, `
int g;
int bump() { g = g + 1; return g; }
int main() { return bump(); }`)
	bump := irp.FuncByName("bump")
	fi := info.Funcs[bump]
	gObj := irp.Globals[0]
	count := 0
	for _, vers := range fi.RetVersions {
		d, ok := vers[memssa.MemVar{Obj: gObj, Field: 0}]
		if !ok {
			t.Error("ret versions missing g")
			continue
		}
		if d.Kind != memssa.DefChi {
			t.Errorf("g's version at ret = %v, want the store chi", d)
		}
		count++
	}
	if count == 0 {
		t.Error("no ret versions recorded")
	}
}
