package pointer_test

import (
	"strings"
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/pointer"
)

func analyze(t *testing.T, src string) (*ir.Program, *pointer.Result) {
	t.Helper()
	irp := usher.MustCompile("t.c", src)
	return irp, pointer.Analyze(irp)
}

// findReg locates the register defined by the first instruction in fn
// whose printed form contains substr.
func findReg(t *testing.T, fn *ir.Function, substr string) *ir.Register {
	t.Helper()
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if strings.Contains(in.String(), substr) && in.Defines() != nil {
				return in.Defines()
			}
		}
	}
	t.Fatalf("no defining instruction matching %q in %s:\n%s", substr, fn.Name, ir.PrintFunc(fn))
	return nil
}

func locNames(locs []pointer.Loc) []string {
	var out []string
	for _, l := range locs {
		out = append(out, l.String())
	}
	return out
}

func TestBasicAddressOf(t *testing.T) {
	irp, res := analyze(t, `
int main() {
  int a;
  int b;
  int *p = &a;
  int *q = &b;
  *p = 1;
  *q = 2;
  return a + b;
}`)
	main := irp.FuncByName("main")
	// p's value flows through stores/loads; find the alloca addresses.
	var pa, qa *ir.Register
	for _, blk := range main.Blocks {
		for _, in := range blk.Instrs {
			if a, ok := in.(*ir.Alloc); ok {
				switch a.Obj.Name {
				case "a":
					pa = a.Dst
				case "b":
					qa = a.Dst
				}
			}
		}
	}
	aLocs := res.PointsTo(pa)
	bLocs := res.PointsTo(qa)
	if len(aLocs) != 1 || aLocs[0].Obj.Name != "a" {
		t.Errorf("pts(&a) = %v", locNames(aLocs))
	}
	if len(bLocs) != 1 || bLocs[0].Obj.Name != "b" {
		t.Errorf("pts(&b) = %v", locNames(bLocs))
	}
}

func TestFlowThroughMemory(t *testing.T) {
	irp, res := analyze(t, `
int g;
int main() {
  int **pp = malloc(1);
  *pp = &g;
  int *p = *pp;
  *p = 3;
  return g;
}`)
	main := irp.FuncByName("main")
	p := findReg(t, main, "load") // the load of *pp... first load
	_ = p
	// The store *p = 3 must target the global g: find the last store's
	// address operand and query it.
	var lastStore *ir.Store
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if st, ok := in.(*ir.Store); ok {
				lastStore = st
			}
		}
	}
	locs := res.PointsTo(lastStore.Addr)
	found := false
	for _, l := range locs {
		if l.Obj != nil && l.Obj.Name == "g" {
			found = true
		}
	}
	if !found {
		t.Errorf("store addr pts = %v, want g", locNames(locs))
	}
}

func TestFieldSensitivity(t *testing.T) {
	irp, res := analyze(t, `
struct S { int *a; int *b; };
int x;
int y;
int main() {
  struct S s;
  s.a = &x;
  s.b = &y;
  int *p = s.a;
  *p = 1;
  return x;
}`)
	main := irp.FuncByName("main")
	var lastStore *ir.Store
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if st, ok := in.(*ir.Store); ok {
				lastStore = st
			}
		}
	}
	locs := res.PointsTo(lastStore.Addr)
	// p = s.a must point to x only, not y: field-sensitive.
	if len(locs) != 1 || locs[0].Obj.Name != "x" {
		t.Errorf("pts(p) = %v, want exactly [x] (field-sensitive)", locNames(locs))
	}
}

func TestArrayCollapsing(t *testing.T) {
	irp, res := analyze(t, `
int main() {
  int a[10];
  int *p = &a[3];
  *p = 1;
  return a[3];
}`)
	main := irp.FuncByName("main")
	var store *ir.Store
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if st, ok := in.(*ir.Store); ok {
				store = st
			}
		}
	}
	locs := res.PointsTo(store.Addr)
	if len(locs) != 1 || locs[0].Obj.Name != "a" || locs[0].Field != 0 {
		t.Errorf("pts into array = %v, want [a] collapsed", locNames(locs))
	}
	if !locs[0].Obj.Collapsed() {
		t.Error("array object must be collapsed")
	}
}

func TestInterproceduralFlow(t *testing.T) {
	irp, res := analyze(t, `
int g;
int *id(int *p) { return p; }
int main() {
  int *q = id(&g);
  *q = 5;
  return g;
}`)
	main := irp.FuncByName("main")
	var store *ir.Store
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if st, ok := in.(*ir.Store); ok {
				store = st
			}
		}
	}
	locs := res.PointsTo(store.Addr)
	if len(locs) != 1 || locs[0].Obj.Name != "g" {
		t.Errorf("pts(q) = %v, want [g]", locNames(locs))
	}
}

func TestIndirectCallResolution(t *testing.T) {
	irp, res := analyze(t, `
int f1(int x) { return x; }
int f2(int x) { return x + 1; }
int apply(int (*f)(int), int v) { return f(v); }
int main() {
  int a = apply(f1, 1);
  int b = apply(f2, 2);
  return a + b;
}`)
	apply := irp.FuncByName("apply")
	var indirect *ir.Call
	for _, b := range apply.Blocks {
		for _, in := range b.Instrs {
			if c, ok := in.(*ir.Call); ok && c.Direct() == nil && c.Builtin == ir.NotBuiltin {
				indirect = c
			}
		}
	}
	callees := res.Callees(indirect)
	names := map[string]bool{}
	for _, fn := range callees {
		names[fn.Name] = true
	}
	if !names["f1"] || !names["f2"] || len(callees) != 2 {
		t.Errorf("callees = %v, want {f1, f2}", names)
	}
	// Callers of f1 must include the indirect call.
	callers := res.Callers(irp.FuncByName("f1"))
	if len(callers) != 1 || callers[0] != indirect {
		t.Errorf("callers(f1) = %v", callers)
	}
}

func TestRecursionDetection(t *testing.T) {
	irp, res := analyze(t, `
int even(int n);
int odd(int n) { if (n == 0) { return 0; } return even(n - 1); }
int even(int n) { if (n == 0) { return 1; } return odd(n - 1); }
int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }
int leaf(int n) { return n; }
int main() { return even(4) + fact(3) + leaf(1); }`)
	for name, want := range map[string]bool{
		"even": true, "odd": true, "fact": true, "leaf": false, "main": false,
	} {
		if got := res.Recursive(irp.FuncByName(name)); got != want {
			t.Errorf("Recursive(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestUniqueTarget(t *testing.T) {
	irp, res := analyze(t, `
int a;
int b;
int main(int c) {
  int *p = &a;
  int *q;
  if (c) { q = &a; } else { q = &b; }
  *p = 1;
  *q = 2;
  return a + b;
}`)
	main := irp.FuncByName("main")
	var stores []*ir.Store
	for _, blk := range main.Blocks {
		for _, in := range blk.Instrs {
			if st, ok := in.(*ir.Store); ok {
				stores = append(stores, st)
			}
		}
	}
	var uniq, multi int
	for _, st := range stores {
		if _, ok := res.UniqueTarget(st.Addr); ok {
			uniq++
		} else if len(res.PointsTo(st.Addr)) > 1 {
			multi++
		}
	}
	if uniq < 1 {
		t.Errorf("no store with a unique target (p)")
	}
	if multi < 1 {
		t.Errorf("no store with multiple targets (q)")
	}
}

func TestHeapObjectsDistinctPerSite(t *testing.T) {
	irp, res := analyze(t, `
int main() {
  int *p = malloc(2);
  int *q = malloc(2);
  *p = 1;
  *q = 2;
  return *p + *q;
}`)
	main := irp.FuncByName("main")
	var allocs []*ir.Alloc
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if a, ok := in.(*ir.Alloc); ok && a.Obj.Kind == ir.ObjHeap {
				allocs = append(allocs, a)
			}
		}
	}
	if len(allocs) != 2 {
		t.Fatalf("heap allocs = %d, want 2", len(allocs))
	}
	l1 := res.PointsTo(allocs[0].Dst)
	l2 := res.PointsTo(allocs[1].Dst)
	if len(l1) != 1 || len(l2) != 1 || l1[0].Obj == l2[0].Obj {
		t.Errorf("allocation sites must be distinct objects: %v vs %v", locNames(l1), locNames(l2))
	}
}

func TestSoundnessAgainstRuntime(t *testing.T) {
	// Every address dereferenced at runtime must be in the static
	// points-to set (invariant 4 of DESIGN.md). Exercised on a program
	// with heap, fields, branches and function pointers.
	src := `
struct Node { int val; struct Node *next; };
struct Node *make(int v) {
  struct Node *n = malloc(sizeof(struct Node));
  n->val = v;
  n->next = 0;
  return n;
}
int sum(struct Node *head) {
  int s = 0;
  while (head != 0) { s += head->val; head = head->next; }
  return s;
}
int main() {
  struct Node *a = make(1);
  struct Node *b = make(2);
  a->next = b;
  return sum(a);
}`
	irp, res := analyze(t, src)
	// make() is called twice but there is one allocation site: both list
	// nodes must share one abstract object.
	makeFn := irp.FuncByName("make")
	var alloc *ir.Alloc
	for _, blk := range makeFn.Blocks {
		for _, in := range blk.Instrs {
			if a, ok := in.(*ir.Alloc); ok && a.Obj.Kind == ir.ObjHeap {
				alloc = a
			}
		}
	}
	if alloc == nil {
		t.Fatal("no heap alloc in make")
	}
	// sum's head->val load must point into that object.
	sumFn := irp.FuncByName("sum")
	var load *ir.Load
	for _, blk := range sumFn.Blocks {
		for _, in := range blk.Instrs {
			if l, ok := in.(*ir.Load); ok {
				load = l
				break
			}
		}
		if load != nil {
			break
		}
	}
	locs := res.PointsTo(load.Addr)
	found := false
	for _, l := range locs {
		if l.Obj == alloc.Obj {
			found = true
		}
	}
	if !found {
		t.Errorf("sum load pts %v does not include the make() allocation", locNames(locs))
	}
}

func TestFunctionPointersThroughMemory(t *testing.T) {
	// Function pointers stored in an array and loaded back: the indirect
	// call must resolve through the memory flow.
	irp, res := analyze(t, `
int f1(int x) { return x + 1; }
int f2(int x) { return x * 2; }
int main() {
  int (*tab[2])(int);
  tab[0] = f1;
  tab[1] = f2;
  int s = 0;
  for (int i = 0; i < 2; i++) {
    int (*g)(int) = tab[i];
    s += g(i);
  }
  return s;
}`)
	main := irp.FuncByName("main")
	var indirect *ir.Call
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if c, ok := in.(*ir.Call); ok && c.Direct() == nil && c.Builtin == ir.NotBuiltin {
				indirect = c
			}
		}
	}
	if indirect == nil {
		t.Fatal("no indirect call found")
	}
	callees := res.Callees(indirect)
	names := map[string]bool{}
	for _, fn := range callees {
		names[fn.Name] = true
	}
	if !names["f1"] || !names["f2"] {
		t.Errorf("callees through memory = %v, want {f1, f2}", names)
	}
}

func TestDoubleIndirectionChain(t *testing.T) {
	irp, res := analyze(t, `
int target;
int main() {
  int *p = &target;
  int **pp = &p;
  int ***ppp = &pp;
  int *q = **ppp;
  *q = 9;
  return target;
}`)
	main := irp.FuncByName("main")
	var lastStore *ir.Store
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if st, ok := in.(*ir.Store); ok {
				lastStore = st
			}
		}
	}
	locs := res.PointsTo(lastStore.Addr)
	found := false
	for _, l := range locs {
		if l.Obj != nil && l.Obj.Name == "target" {
			found = true
		}
	}
	if !found {
		t.Errorf("***chain store pts = %v, want target", locNames(locs))
	}
}

func TestStructOfFunctionPointers(t *testing.T) {
	irp, res := analyze(t, `
struct Ops { int (*run)(int); int tag; };
int work(int x) { return x; }
int main() {
  struct Ops ops;
  ops.run = work;
  ops.tag = 1;
  int (*f)(int) = ops.run;
  return f(5);
}`)
	main := irp.FuncByName("main")
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if c, ok := in.(*ir.Call); ok && c.Direct() == nil && c.Builtin == ir.NotBuiltin {
				callees := res.Callees(c)
				if len(callees) != 1 || callees[0].Name != "work" {
					t.Errorf("struct-field fp callees = %v, want [work]", callees)
				}
				return
			}
		}
	}
	t.Fatal("no indirect call found")
}
