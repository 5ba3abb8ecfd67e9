package interp_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/instrument"
	"github.com/valueflow/usher/internal/interp"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/passes"
)

// compileO0IM compiles src at the paper's O0+IM level.
func compileO0IM(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog := usher.MustCompile("t.c", src)
	if err := passes.Apply(prog, passes.O0IM); err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestValueLayout pins the register and cell layout: a Value is 24 bytes
// with a single pointer field for the garbage collector to scan.
func TestValueLayout(t *testing.T) {
	if size := unsafe.Sizeof(interp.Value{}); size != 24 {
		t.Errorf("Value is %d bytes, want 24", size)
	}
	typ := reflect.TypeOf(interp.Value{})
	pointers := 0
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() == reflect.Pointer {
			pointers++
		}
	}
	if pointers != 1 || typ.NumField() != 3 {
		t.Errorf("Value has %d fields, %d of them pointers; want 3 fields, one pointer", typ.NumField(), pointers)
	}
}

// callLoop makes n calls of a scalar three-argument function.
func callLoop(n int) string {
	return `int f(int a, int b, int c) { return (a + b * c) % 1000; }
int main() {
  int s = 0;
  for (int i = 0; i < ` + itoaTest(n) + `; i++) { s = f(s, i, 3); }
  return s;
}`
}

// TestCallsAllocateNothing pins that a call allocates nothing, natively
// and under the MSan plan: a run making 10,000 calls allocates no more
// than a run making 100, up to a small constant.
func TestCallsAllocateNothing(t *testing.T) {
	for _, msan := range []bool{false, true} {
		allocs := func(n int) float64 {
			prog := compileO0IM(t, callLoop(n))
			opts := interp.Options{}
			if msan {
				opts.Shadow = &interp.ShadowConfig{Plan: instrument.Full(prog)}
			}
			return testing.AllocsPerRun(5, func() {
				if _, err := interp.Run(prog, "main", nil, opts); err != nil {
					t.Fatal(err)
				}
			})
		}
		few, many := allocs(100), allocs(10000)
		if many > few+8 {
			t.Errorf("msan=%v: 10,000 calls allocate %.0f times, 100 calls %.0f", msan, many, few)
		}
	}
}

// TestMemmoveOverlap copies overlapping ranges within one array, forward
// and backward. Values, definedness (the oracle) and MSan shadows (the
// shadow checks) must come out as a buffered copy would leave them.
func TestMemmoveOverlap(t *testing.T) {
	// Cells 2, 5 and 7 are never written, so they are undefined.
	initial := []int64{10, 11, -1, 13, 14, -1, 16, -1}
	for _, tc := range []struct {
		name     string
		dst, src int
		n        int
	}{
		{"forward", 2, 0, 5},
		{"backward", 0, 2, 6},
		{"self", 1, 1, 7},
	} {
		var b strings.Builder
		b.WriteString("int main() {\n  int a[8];\n")
		for i, v := range initial {
			if v >= 0 {
				b.WriteString("  a[" + itoaTest(i) + "] = " + itoaTest(int(v)) + ";\n")
			}
		}
		b.WriteString("  memmove(&a[" + itoaTest(tc.dst) + "], &a[" + itoaTest(tc.src) + "], " + itoaTest(tc.n) + ");\n")
		firstPrintLine := 4 + countDefined(initial)
		for i := range initial {
			b.WriteString("  print(a[" + itoaTest(i) + "]);\n")
		}
		b.WriteString("  return 0;\n}\n")
		src := b.String()

		// The model: a buffered copy of (value, defined) pairs. An
		// undefined cell reads as 0.
		vals := make([]int64, len(initial))
		defined := make([]bool, len(initial))
		for i, v := range initial {
			if v >= 0 {
				vals[i], defined[i] = v, true
			}
		}
		bufV := append([]int64(nil), vals[tc.src:tc.src+tc.n]...)
		bufD := append([]bool(nil), defined[tc.src:tc.src+tc.n]...)
		copy(vals[tc.dst:], bufV)
		copy(defined[tc.dst:], bufD)
		wantLines := map[int]bool{}
		for i, d := range defined {
			if !d {
				wantLines[firstPrintLine+i] = true
			}
		}

		prog := usher.MustCompile("t.c", src)
		native, err := interp.Run(prog, "main", nil, interp.Options{})
		if err != nil {
			t.Fatalf("%s: native run: %v", tc.name, err)
		}
		msan, err := interp.Run(prog, "main", nil, interp.Options{
			Shadow: &interp.ShadowConfig{Plan: instrument.Full(prog)},
		})
		if err != nil {
			t.Fatalf("%s: MSan run: %v", tc.name, err)
		}
		for _, res := range []*interp.Result{native, msan} {
			if !reflect.DeepEqual(res.Out, vals) {
				t.Errorf("%s: printed %v, want %v", tc.name, res.Out, vals)
			}
		}
		if got := warningLines(native.OracleWarnings); !reflect.DeepEqual(got, wantLines) {
			t.Errorf("%s: oracle flags lines %v, want %v\n%s", tc.name, got, wantLines, src)
		}
		if got := warningLines(msan.ShadowWarnings); !reflect.DeepEqual(got, wantLines) {
			t.Errorf("%s: MSan flags lines %v, want %v\n%s", tc.name, got, wantLines, src)
		}
		if len(msan.ShadowViolations) != 0 {
			t.Errorf("%s: violations %v", tc.name, msan.ShadowViolations)
		}
	}
}

func countDefined(vs []int64) int {
	n := 0
	for _, v := range vs {
		if v >= 0 {
			n++
		}
	}
	return n
}

func warningLines(ws []interp.Warning) map[int]bool {
	lines := map[int]bool{}
	for _, w := range ws {
		lines[w.Pos.Line] = true
	}
	return lines
}

// TestRecursionPastMaxDepth traps with the call stack overflow message,
// natively and under a plan, at the first call past MaxDepth.
func TestRecursionPastMaxDepth(t *testing.T) {
	prog := compileO0IM(t, `int f(int n) { return f(n + 1); } int main() { return f(0); }`)
	for _, opts := range []interp.Options{
		{MaxDepth: 64},
		{MaxDepth: 64, Shadow: &interp.ShadowConfig{Plan: instrument.Full(prog)}},
	} {
		_, err := interp.Run(prog, "main", nil, opts)
		var re *interp.RuntimeError
		if !errors.As(err, &re) {
			t.Fatalf("err = %v, want a RuntimeError", err)
		}
		if re.Msg != "call stack overflow (depth 65)" || re.Fn != "f" {
			t.Errorf("trap = %q in %q, want call stack overflow (depth 65) in f", re.Msg, re.Fn)
		}
	}
}

// TestTrapMidCallLeavesNextRunClean runs a program that traps three calls
// deep, then the same program and plan on an input that does not trap:
// the second run must report exactly what it reports on its own.
func TestTrapMidCallLeavesNextRunClean(t *testing.T) {
	prog := compileO0IM(t, `
int g(int *p, int k) {
  if (k > 5) { return *p; }
  return k * 2;
}
int f(int k) {
  int *q = 0;
  int u;
  if (k > 100) { u = 1; }
  return g(q, k) + u;
}
int main() {
  int k = input();
  int s = 0;
  for (int i = 0; i < 4; i++) { s = s + f(k + i); }
  print(s);
  return s;
}`)
	plan := instrument.Full(prog)
	input := func(k int64) func(int) int64 { return func(int) int64 { return k } }
	for _, shadow := range []*interp.ShadowConfig{nil, {Plan: plan}} {
		clean := interp.Options{Input: input(1), Shadow: shadow}
		want, err := interp.Run(prog, "main", nil, clean)
		if err != nil {
			t.Fatalf("clean run: %v", err)
		}
		_, err = interp.Run(prog, "main", nil, interp.Options{Input: input(9), Shadow: shadow})
		var re *interp.RuntimeError
		if !errors.As(err, &re) || re.Fn != "g" {
			t.Fatalf("err = %v, want a trap in g", err)
		}
		got, err := interp.Run(prog, "main", nil, clean)
		if err != nil {
			t.Fatalf("run after the trap: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shadow=%v: run after a trap = %+v, want %+v", shadow != nil, got, want)
		}
	}
}

// TestUninitShadowCopyLandsAsT copies from an array whose shadow the
// plan never initializes: every copied cell is a violation, and its
// shadow lands as T, so later loads of the copy read written shadows.
func TestUninitShadowCopyLandsAsT(t *testing.T) {
	prog := usher.MustCompile("t.c", `int main() {
  int s[3];
  int d[3];
  memcpy(d, s, 3);
  print(d[0] + d[1] + d[2]);
  return 0;
}`)
	plan := instrument.Full(prog)
	main := prog.FuncByName("main")
	fp := plan.FnPlanOf(main)
	dropped := 0
	for _, in := range main.Entry().Instrs {
		if a, ok := in.(*ir.Alloc); ok && a.Obj.Name == "s" {
			var keep []instrument.Item
			for _, it := range fp.Items[a.Label()] {
				if it.Kind == instrument.MemSetT || it.Kind == instrument.MemSetF {
					dropped++
					continue
				}
				keep = append(keep, it)
			}
			fp.Items[a.Label()] = keep
		}
	}
	if dropped != 1 {
		t.Fatalf("dropped %d shadow initializations of s, want 1\n%s", dropped, ir.Print(prog))
	}
	res, err := interp.Run(prog, "main", nil, interp.Options{Shadow: &interp.ShadowConfig{Plan: plan}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ShadowViolations) != 3 {
		t.Fatalf("violations %q, want one per copied cell", res.ShadowViolations)
	}
	for _, v := range res.ShadowViolations {
		if !strings.HasPrefix(v, "copy of uninitialized cell shadow at &") {
			t.Errorf("violation %q, want a copy of an uninitialized cell shadow", v)
		}
	}
	if len(res.ShadowWarnings) != 0 {
		t.Errorf("shadow warnings %v: the copied shadows should have landed as T", res.ShadowWarnings)
	}
}
