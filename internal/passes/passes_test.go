package passes_test

import (
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/interp"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/ssa"
)

func runProg(t *testing.T, prog *ir.Program, args ...int64) *interp.Result {
	t.Helper()
	var vals []interp.Value
	for _, a := range args {
		vals = append(vals, interp.IntVal(a))
	}
	res, err := interp.Run(prog, "main", vals, interp.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// checkSemantics compiles src twice, applies the pass pipeline to one
// copy, and compares results.
func checkSemantics(t *testing.T, src string, level passes.Level, args ...int64) (*ir.Program, *ir.Program) {
	t.Helper()
	plain := usher.MustCompile("t.c", src)
	opt := usher.MustCompile("t.c", src)
	if err := passes.Apply(opt, level); err != nil {
		t.Fatalf("apply %v: %v", level, err)
	}
	r1 := runProg(t, plain, args...)
	r2 := runProg(t, opt, args...)
	if r1.Exit.Int != r2.Exit.Int {
		t.Fatalf("[%v] exit changed: %d vs %d\n%s", level, r1.Exit.Int, r2.Exit.Int, ir.Print(opt))
	}
	if len(r1.Out) != len(r2.Out) {
		t.Fatalf("[%v] output length changed: %v vs %v", level, r1.Out, r2.Out)
	}
	for i := range r1.Out {
		if r1.Out[i] != r2.Out[i] {
			t.Fatalf("[%v] output %d changed: %d vs %d", level, i, r1.Out[i], r2.Out[i])
		}
	}
	return plain, opt
}

const mixedProgram = `
int g;
struct Pair { int a; int b; };
int helper(int x) { return x * 3 + 1; }
int *mkbuf(int n) { return malloc(n); }
int apply(int (*f)(int), int v) { return f(v); }
int main() {
  int s = 0;
  int *buf = mkbuf(8);
  for (int i = 0; i < 8; i++) { buf[i] = apply(helper, i); }
  for (int i = 0; i < 8; i++) { s += buf[i]; }
  struct Pair p;
  p.a = s;
  p.b = 2 * 3 + 4;
  g = p.a + p.b;
  print(g);
  free(buf);
  return g % 1000;
}`

func TestPipelinesPreserveSemantics(t *testing.T) {
	for _, level := range []passes.Level{passes.O0IM, passes.O1, passes.O2} {
		checkSemantics(t, mixedProgram, level)
	}
}

func TestInlineFunctionPointerArgs(t *testing.T) {
	src := `
int inc(int x) { return x + 1; }
int apply(int (*f)(int), int v) { return f(v); }
int main() { return apply(inc, 41); }`
	prog := usher.MustCompile("t.c", src)
	n := passes.InlineFunctionPointerArgs(prog)
	if n == 0 {
		t.Fatal("apply (function-pointer arg) was not inlined")
	}
	ssa.Promote(prog)
	if err := ir.Verify(prog); err != nil {
		t.Fatalf("verify: %v\n%s", err, ir.Print(prog))
	}
	res := runProg(t, prog)
	if res.Exit.Int != 42 {
		t.Fatalf("exit = %d, want 42", res.Exit.Int)
	}
	// main must no longer call apply.
	main := prog.FuncByName("main")
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if c, ok := in.(*ir.Call); ok && c.Direct() != nil && c.Direct().Name == "apply" {
				t.Error("call to apply still present")
			}
		}
	}
}

func TestHeapCloningViaWrapperInlining(t *testing.T) {
	src := `
int *mk(int n) { return malloc(n); }
int main() {
  int *a = mk(2);
  int *b = mk(2);
  a[0] = 1;
  b[0] = 2;
  return a[0] + b[0];
}`
	prog := usher.MustCompile("t.c", src)
	n := passes.InlineAllocWrappers(prog)
	if n != 2 {
		t.Fatalf("inlined %d wrapper calls, want 2", n)
	}
	// The two call sites must now own distinct cloned heap objects.
	var clones []*ir.Object
	for _, o := range prog.Objects() {
		if o.CloneOf != nil {
			clones = append(clones, o)
		}
	}
	if len(clones) != 2 {
		t.Fatalf("heap clones = %d, want 2", len(clones))
	}
	if clones[0].CloneSite == clones[1].CloneSite {
		t.Error("clones share a call site")
	}
	res := runProg(t, prog)
	if res.Exit.Int != 3 {
		t.Fatalf("exit = %d, want 3", res.Exit.Int)
	}
}

func TestConstFoldAndBranches(t *testing.T) {
	src := `
int main() {
  int a = 2 + 3;
  int b = a * 4;
  if (b == 20) { return 1; }
  return 0;
}`
	prog := usher.MustCompile("t.c", src)
	if err := passes.Apply(prog, passes.O1); err != nil {
		t.Fatal(err)
	}
	main := prog.FuncByName("main")
	// Everything folds: main should be nearly empty, returning 1.
	var binops, branches int
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			switch in.(type) {
			case *ir.BinOp:
				binops++
			case *ir.Branch:
				branches++
			}
		}
	}
	if binops != 0 || branches != 0 {
		t.Errorf("binops=%d branches=%d, want 0/0:\n%s", binops, branches, ir.PrintFunc(main))
	}
	res := runProg(t, prog)
	if res.Exit.Int != 1 {
		t.Fatalf("exit = %d, want 1", res.Exit.Int)
	}
}

func TestDCERemovesDeadLoads(t *testing.T) {
	src := `
int main() {
  int *p = malloc(4);
  p[0] = 1;
  int dead = p[2];
  return p[0];
}`
	prog := usher.MustCompile("t.c", src)
	before := countLoads(prog)
	passes.DCE(prog)
	after := countLoads(prog)
	if after >= before {
		t.Errorf("DCE did not remove the dead load: %d -> %d", before, after)
	}
	res := runProg(t, prog)
	if res.Exit.Int != 1 {
		t.Fatalf("exit = %d, want 1", res.Exit.Int)
	}
}

func countLoads(prog *ir.Program) int {
	n := 0
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if _, ok := in.(*ir.Load); ok {
					n++
				}
			}
		}
	}
	return n
}

func TestCSE(t *testing.T) {
	src := `
int main(int x) {
  int a = x * 7;
  int b = x * 7;
  return a + b;
}`
	prog := usher.MustCompile("t.c", src)
	n := passes.CSE(prog)
	if n == 0 {
		t.Error("CSE found no duplicate x*7")
	}
	res := runProg(t, prog, 3)
	if res.Exit.Int != 42 {
		t.Fatalf("exit = %d, want 42", res.Exit.Int)
	}
}

func TestRecursionNotInlined(t *testing.T) {
	src := `
int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }
int main() { return fact(5); }`
	prog := usher.MustCompile("t.c", src)
	if err := passes.Apply(prog, passes.O2); err != nil {
		t.Fatal(err)
	}
	res := runProg(t, prog)
	if res.Exit.Int != 120 {
		t.Fatalf("fact(5) = %d, want 120", res.Exit.Int)
	}
}

func TestO1CanHideUndefinedUses(t *testing.T) {
	// The paper (§4.3) notes that higher optimization levels make
	// undefined-value detection nondeterministic because dead undefined
	// computations disappear. DCE removing a dead undefined load is the
	// benign version of that effect; semantics of live code still agree.
	src := `
int main() {
  int *p = malloc(2);
  p[0] = 1;
  int dead = p[1];
  return p[0];
}`
	plain := usher.MustCompile("t.c", src)
	opt := usher.MustCompile("t.c", src)
	if err := passes.Apply(opt, passes.O1); err != nil {
		t.Fatal(err)
	}
	r1 := runProg(t, plain)
	r2 := runProg(t, opt)
	if r1.Exit.Int != r2.Exit.Int {
		t.Fatalf("exit changed: %d vs %d", r1.Exit.Int, r2.Exit.Int)
	}
}
