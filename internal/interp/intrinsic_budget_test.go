package interp_test

import (
	"strings"
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/interp"
)

// The lowering collapses constant allocations above 4096 cells (see
// lower.maxFieldSensitiveCells); the interpreter still materializes the
// full extent, so whole-object intrinsics over such objects are the
// worst case for step accounting. These tests pin the contract: the
// intrinsic's work is charged by the *requested range*, and adversarial
// lengths exhaust the step budget (a trap) instead of hanging.

func runOpts(t *testing.T, src string, opts interp.Options) (*interp.Result, error) {
	t.Helper()
	irp := usher.MustCompile("budget.c", src)
	return interp.Run(irp, "main", nil, opts)
}

func collapsedFillProgram(fillLen int) string {
	return `
int main() {
  int *p = malloc(8200);
  memset(p, 7, ` + itoaTest(fillLen) + `);
  int x = p[0];
  free(p);
  print(x);
  return 0;
}
`
}

func itoaTest(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestMemsetChargedByRequestedRange: two programs identical except for
// the memset length must differ in Steps by exactly the length delta —
// the bulk work is charged per cell, not per instruction.
func TestMemsetChargedByRequestedRange(t *testing.T) {
	big, err := runOpts(t, collapsedFillProgram(8200), interp.Options{})
	if err != nil {
		t.Fatalf("full fill: %v", err)
	}
	small, err := runOpts(t, collapsedFillProgram(1), interp.Options{})
	if err != nil {
		t.Fatalf("one-cell fill: %v", err)
	}
	if got := big.Steps - small.Steps; got != 8199 {
		t.Errorf("step delta between memset(…, 8200) and memset(…, 1) = %d, want 8199", got)
	}
}

// TestMemcpyChargedByRequestedRange does the same for the copy
// intrinsics.
func TestMemcpyChargedByRequestedRange(t *testing.T) {
	prog := func(n int) string {
		return `
int main() {
  int *a = malloc(8200);
  int *b = malloc(8200);
  memset(a, 3, 8200);
  memcpy(b, a, ` + itoaTest(n) + `);
  int x = b[0];
  free(a);
  free(b);
  print(x);
  return 0;
}
`
	}
	big, err := runOpts(t, prog(8200), interp.Options{})
	if err != nil {
		t.Fatalf("full copy: %v", err)
	}
	small, err := runOpts(t, prog(1), interp.Options{})
	if err != nil {
		t.Fatalf("one-cell copy: %v", err)
	}
	if got := big.Steps - small.Steps; got != 8199 {
		t.Errorf("step delta between memcpy(…, 8200) and memcpy(…, 1) = %d, want 8199", got)
	}
}

// TestIntrinsicLoopExhaustsStepBudget: a loop of whole-object memsets
// over a collapsed allocation must trap on the step budget after
// ~MaxSteps/8200 iterations — not run MaxSteps iterations doing 8200
// writes each. A tiny budget makes a hang (the pre-charging behavior)
// fail fast instead of stalling the suite.
func TestIntrinsicLoopExhaustsStepBudget(t *testing.T) {
	src := `
int main() {
  int *p = malloc(8200);
  int i = 0;
  while (i < 1000000) {
    memset(p, i, 8200);
    i = i + 1;
  }
  free(p);
  return 0;
}
`
	_, err := runOpts(t, src, interp.Options{MaxSteps: 100_000})
	if err == nil {
		t.Fatal("loop of large memsets completed under a 100k step budget")
	}
	if !strings.Contains(err.Error(), "step budget exhausted") {
		t.Errorf("trap = %v, want a step-budget exhaustion", err)
	}
}

// TestAdversarialLengthsTrapBeforeWork: out-of-bounds and negative
// lengths are rejected before any cell is touched, in O(1).
func TestAdversarialLengthsTrapBeforeWork(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"memset-oob", `
int main() {
  int *p = malloc(8200);
  memset(p, 1, 2000000000);
  return 0;
}
`, "out of bounds"},
		{"memset-negative", `
int main() {
  int *p = malloc(8200);
  memset(p, 1, 0 - 5);
  return 0;
}
`, "negative length"},
		{"memcpy-oob-src", `
int main() {
  int *a = malloc(16);
  int *b = malloc(8200);
  memcpy(b, a, 8200);
  return 0;
}
`, "out of bounds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// MaxSteps is tiny relative to the requested ranges: if the
			// interpreter did the work (or charged it) before validating,
			// the message would be a budget trap, not the range trap.
			_, err := runOpts(t, tc.src, interp.Options{MaxSteps: 10_000})
			if err == nil {
				t.Fatal("adversarial length did not trap")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("trap = %v, want %q", err, tc.want)
			}
		})
	}
}
