package interp_test

import (
	"errors"
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/instrument"
	"github.com/valueflow/usher/internal/interp"
)

func run(t *testing.T, src string, args ...int64) *interp.Result {
	t.Helper()
	irp := usher.MustCompile("t.c", src)
	var vals []interp.Value
	for _, a := range args {
		vals = append(vals, interp.IntVal(a))
	}
	res, err := interp.Run(irp, "main", vals, interp.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func exitInt(t *testing.T, res *interp.Result) int64 {
	t.Helper()
	if res.Exit.Kind != interp.KindInt {
		t.Fatalf("exit value = %v, want int", res.Exit)
	}
	return res.Exit.Int
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		expr string
		want int64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 / 3", 3},
		{"10 % 3", 1},
		{"1 << 4", 16},
		{"255 >> 4", 15},
		{"12 & 10", 8},
		{"12 | 10", 14},
		{"12 ^ 10", 6},
		{"5 - 9", -4},
		{"-(5)", -5},
		{"!0", 1},
		{"!7", 0},
		{"~0", -1},
		{"3 < 4", 1},
		{"4 <= 4", 1},
		{"5 > 6", 0},
		{"5 >= 5", 1},
		{"3 == 3", 1},
		{"3 != 3", 0},
	}
	for _, tt := range tests {
		res := run(t, "int main() { return "+tt.expr+"; }")
		if got := exitInt(t, res); got != tt.want {
			t.Errorf("%s = %d, want %d", tt.expr, got, tt.want)
		}
	}
}

func TestControlFlow(t *testing.T) {
	res := run(t, `
int main() {
  int s = 0;
  for (int i = 1; i <= 10; i++) {
    if (i % 2 == 0) { s += i; }
  }
  return s;
}`)
	if got := exitInt(t, res); got != 30 {
		t.Errorf("sum of evens = %d, want 30", got)
	}
}

func TestWhileBreakContinue(t *testing.T) {
	res := run(t, `
int main() {
  int i = 0;
  int s = 0;
  while (1) {
    i++;
    if (i > 100) { break; }
    if (i % 3) { continue; }
    s += i;
  }
  return s;
}`)
	// multiples of 3 up to 99: 3+6+...+99 = 3*(1+..+33) = 3*561 = 1683
	if got := exitInt(t, res); got != 1683 {
		t.Errorf("got %d, want 1683", got)
	}
}

func TestRecursion(t *testing.T) {
	res := run(t, `
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int main() { return fib(15); }`)
	if got := exitInt(t, res); got != 610 {
		t.Errorf("fib(15) = %d, want 610", got)
	}
}

func TestPointersAndHeap(t *testing.T) {
	res := run(t, `
int main() {
  int *p = malloc(3);
  p[0] = 10;
  p[1] = 20;
  p[2] = p[0] + p[1];
  int r = p[2];
  free(p);
  return r;
}`)
	if got := exitInt(t, res); got != 30 {
		t.Errorf("got %d, want 30", got)
	}
}

func TestStructsLinkedList(t *testing.T) {
	res := run(t, `
struct Node { int val; struct Node *next; };
int main() {
  struct Node *head = 0;
  for (int i = 1; i <= 5; i++) {
    struct Node *n = malloc(sizeof(struct Node));
    n->val = i;
    n->next = head;
    head = n;
  }
  int s = 0;
  while (head != 0) {
    s += head->val;
    head = head->next;
  }
  return s;
}`)
	if got := exitInt(t, res); got != 15 {
		t.Errorf("list sum = %d, want 15", got)
	}
}

func TestFunctionPointerDispatch(t *testing.T) {
	res := run(t, `
int inc(int x) { return x + 1; }
int dbl(int x) { return x * 2; }
int apply(int (*f)(int), int v) { return f(v); }
int main() {
  int (*g)(int);
  g = inc;
  int a = apply(g, 10);
  g = dbl;
  int b = apply(g, 10);
  return a * 100 + b;
}`)
	if got := exitInt(t, res); got != 1120 {
		t.Errorf("got %d, want 1120", got)
	}
}

func TestGlobals(t *testing.T) {
	res := run(t, `
int counter = 5;
void bump() { counter += 1; }
int main() { bump(); bump(); return counter; }`)
	if got := exitInt(t, res); got != 7 {
		t.Errorf("counter = %d, want 7", got)
	}
}

func TestPrintAndInput(t *testing.T) {
	res := run(t, `
int main() {
  print(42);
  int v = input();
  print(v + 1);
  return 0;
}`)
	if len(res.Out) != 2 || res.Out[0] != 42 {
		t.Errorf("out = %v", res.Out)
	}
}

func TestOracleUninitLocal(t *testing.T) {
	res := run(t, `
int main(int c) {
  int x;
  if (c) { x = 1; }
  if (x) { return 1; }
  return 0;
}`, 0)
	if len(res.OracleWarnings) == 0 {
		t.Fatal("oracle missed branch on uninitialized x")
	}
}

func TestOracleNoFalsePositive(t *testing.T) {
	res := run(t, `
int main(int c) {
  int x;
  if (c) { x = 1; } else { x = 2; }
  if (x) { return 1; }
  return 0;
}`, 0)
	if len(res.OracleWarnings) != 0 {
		t.Fatalf("oracle false positives: %v", res.OracleWarnings)
	}
}

func TestOracleUninitHeapPropagation(t *testing.T) {
	res := run(t, `
int main() {
  int *p = malloc(2);
  p[0] = 1;
  int y = p[1];      // undefined
  int z = y + 3;     // taints z
  print(z);          // critical use
  return 0;
}`)
	if len(res.OracleWarnings) == 0 {
		t.Fatal("oracle missed tainted print")
	}
}

func TestCallocDefined(t *testing.T) {
	res := run(t, `
int main() {
  int *p = calloc(4);
  print(p[3]);
  return p[0];
}`)
	if len(res.OracleWarnings) != 0 {
		t.Fatalf("calloc memory should be defined: %v", res.OracleWarnings)
	}
	if got := exitInt(t, res); got != 0 {
		t.Errorf("calloc cell = %d, want 0", got)
	}
}

func TestMissingReturnIsUndefined(t *testing.T) {
	res := run(t, `
int f(int c) { if (c) { return 7; } }
int main() { int v = f(0); if (v) { return 1; } return 0; }`)
	if len(res.OracleWarnings) == 0 {
		t.Fatal("oracle missed branch on missing-return value")
	}
}

func TestRuntimeErrorNullDeref(t *testing.T) {
	irp := usher.MustCompile("t.c", `int main() { int *p = 0; return *p; }`)
	_, err := interp.Run(irp, "main", nil, interp.Options{})
	var re *interp.RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RuntimeError", err)
	}
}

func TestRuntimeErrorUseAfterFree(t *testing.T) {
	irp := usher.MustCompile("t.c", `
int main() {
  int *p = malloc(1);
  free(p);
  return *p;
}`)
	_, err := interp.Run(irp, "main", nil, interp.Options{})
	var re *interp.RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RuntimeError (use after free)", err)
	}
}

func TestStepBudget(t *testing.T) {
	irp := usher.MustCompile("t.c", `int main() { while (1) {} return 0; }`)
	_, err := interp.Run(irp, "main", nil, interp.Options{MaxSteps: 1000})
	var re *interp.RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RuntimeError (budget)", err)
	}
}

func TestStackOverflow(t *testing.T) {
	irp := usher.MustCompile("t.c", `int f(int n) { return f(n + 1); } int main() { return f(0); }`)
	_, err := interp.Run(irp, "main", nil, interp.Options{MaxDepth: 64})
	var re *interp.RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RuntimeError (overflow)", err)
	}
}

// runShadow executes under the full-instrumentation (MSan model) plan.
func runShadow(t *testing.T, src string, args ...int64) *interp.Result {
	t.Helper()
	irp := usher.MustCompile("t.c", src)
	plan := instrument.Full(irp)
	var vals []interp.Value
	for _, a := range args {
		vals = append(vals, interp.IntVal(a))
	}
	res, err := interp.Run(irp, "main", vals, interp.Options{
		Shadow: &interp.ShadowConfig{Plan: plan},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestFullInstrumentationMatchesOracle(t *testing.T) {
	srcs := []string{
		// clean program
		`int main() {
  int s = 0;
  for (int i = 0; i < 8; i++) { s += i; }
  print(s);
  return s;
}`,
		// uninitialized local through a pointer
		`int main() {
  int x;
  int *p = &x;
  if (*p) { return 1; }
  return 0;
}`,
		// heap taint chain across calls
		`int taint(int *p) { return p[1]; }
int main() {
  int *p = malloc(2);
  p[0] = 1;
  int t = taint(p);
  print(t + p[0]);
  return 0;
}`,
		// defined: calloc + full init
		`int main() {
  int *p = malloc(3);
  for (int i = 0; i < 3; i++) { p[i] = i; }
  print(p[0] + p[1] + p[2]);
  return 0;
}`,
	}
	for i, src := range srcs {
		res := runShadow(t, src)
		oracle := res.OracleSites()
		shadow := res.ShadowSites()
		if len(oracle) != len(shadow) {
			t.Errorf("case %d: oracle %d sites, shadow %d sites\noracle: %v\nshadow: %v",
				i, len(oracle), len(shadow), res.OracleWarnings, res.ShadowWarnings)
			continue
		}
		for s := range oracle {
			if !shadow[s] {
				t.Errorf("case %d: oracle site %v missed by full instrumentation", i, s)
			}
		}
		if len(res.ShadowViolations) != 0 {
			t.Errorf("case %d: shadow violations: %v", i, res.ShadowViolations)
		}
	}
}

func TestFullInstrumentationCounts(t *testing.T) {
	res := runShadow(t, `
int main() {
  int s = 0;
  for (int i = 0; i < 100; i++) { s += i; }
  return s;
}`)
	if res.ShadowProps == 0 {
		t.Error("full instrumentation executed no shadow propagations")
	}
	if res.ShadowChecks == 0 {
		t.Error("full instrumentation executed no checks")
	}
	if res.Steps == 0 {
		t.Error("no native steps counted")
	}
}

func TestShadowThroughFunctionPointers(t *testing.T) {
	res := runShadow(t, `
int pass(int x) { return x; }
int main() {
  int (*f)(int);
  f = pass;
  int u;
  int v = f(u);   // undefined flows through the indirect call
  if (v) { return 1; }
  return 0;
}`)
	if len(res.ShadowSites()) == 0 {
		t.Errorf("shadow missed undefined flow through indirect call; oracle=%v", res.OracleWarnings)
	}
	oracle, shadow := res.OracleSites(), res.ShadowSites()
	for s := range oracle {
		if !shadow[s] {
			t.Errorf("site %v missed", s)
		}
	}
}

func TestExternalFunctionCall(t *testing.T) {
	// A declared-but-undefined function is treated as an external library
	// call returning a defined value.
	res := run(t, `
int external_lib(int x);
int main() {
  int v = external_lib(3);
  if (v) { return 1; }
  return v;
}`)
	if len(res.OracleWarnings) != 0 {
		t.Fatalf("external call result should be defined: %v", res.OracleWarnings)
	}
	if res.Exit.Int != 0 {
		t.Fatalf("external call should return 0, got %v", res.Exit)
	}
}

func TestDanglingStackPointerTraps(t *testing.T) {
	// Stack storage dies with its activation; dereferencing an escaped
	// pointer afterwards is C UB and traps here.
	irp := usher.MustCompile("t.c", `
int *escape() {
  int local = 5;
  return &local;
}
int main() {
  int *p = escape();
  return *p;
}`)
	_, err := interp.Run(irp, "main", nil, interp.Options{})
	var re *interp.RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RuntimeError (dangling stack pointer)", err)
	}
}

func TestShadowExternalCallUnderAllPlans(t *testing.T) {
	src := `
int external_lib(int x);
int main() {
  int v = external_lib(7);
  if (v > 0) { print(v); }
  return 0;
}`
	res := runShadow(t, src)
	if len(res.ShadowWarnings) != 0 || len(res.ShadowViolations) != 0 {
		t.Fatalf("external call under full instrumentation: warnings=%v violations=%v",
			res.ShadowWarnings, res.ShadowViolations)
	}
}

func TestIndirectCallToExternalFunction(t *testing.T) {
	// A function pointer whose runtime target has no body: the result is
	// a defined value under every instrumentation.
	src := `
int ext(int x);
int pick(int c) {
  int (*f)(int);
  if (c) { f = ext; }
  int v = f(1);
  if (v) { return 1; }
  return 0;
}
int main() { return pick(1); }`
	res := runShadow(t, src)
	if len(res.ShadowViolations) != 0 {
		t.Fatalf("violations: %v", res.ShadowViolations)
	}
	if len(res.ShadowWarnings) != len(res.OracleWarnings) {
		t.Fatalf("shadow %v vs oracle %v", res.ShadowWarnings, res.OracleWarnings)
	}
}

func TestLoopedStackAllocasAllDie(t *testing.T) {
	// After inlining, an alloca can execute repeatedly inside a loop; each
	// instance must die at function return.
	irp := usher.MustCompile("t.c", `
int g_hold;
int *leak() {
  int local = 7;
  return &local;
}
int main() {
  int *last = 0;
  for (int i = 0; i < 3; i++) { last = leak(); }
  return *last;
}`)
	_, err := interp.Run(irp, "main", nil, interp.Options{})
	var re *interp.RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RuntimeError (every stack instance dies)", err)
	}
}

func TestPhiSwapShadowSimultaneity(t *testing.T) {
	// A loop swapping two variables, one undefined: after mem2reg the two
	// phis reference each other, and shadow propagation must read both
	// incoming shadows before writing either (simultaneous assignment).
	src := `
int main(int n) {
  int *p = malloc(1);
  int x = p[0];   // undefined
  int y = 1;      // defined
  for (int i = 0; i < n; i++) {
    int t = x;
    x = y;
    y = t;
  }
  if (y) { return 1; }   // n=1: y holds the undefined value
  return 0;
}`
	res := runShadow(t, src, 1)
	if len(res.ShadowViolations) != 0 {
		t.Fatalf("violations: %v", res.ShadowViolations)
	}
	oracle, shadow := res.OracleSites(), res.ShadowSites()
	if len(oracle) == 0 {
		t.Fatal("test premise broken: no oracle warning")
	}
	for s := range oracle {
		if !shadow[s] {
			t.Errorf("swap pattern: missed oracle site %v", s)
		}
	}
	for s := range shadow {
		if !oracle[s] {
			t.Errorf("swap pattern: false positive at %v", s)
		}
	}

	// And with an even number of swaps the defined value lands in y:
	// no warnings at all.
	res2 := runShadow(t, src, 2)
	if len(res2.ShadowWarnings) != 0 || len(res2.OracleWarnings) != 0 {
		t.Errorf("even swaps should be clean: shadow=%v oracle=%v",
			res2.ShadowWarnings, res2.OracleWarnings)
	}
}
