package interp_test

import (
	"errors"
	"sort"
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/instrument"
	"github.com/valueflow/usher/internal/interp"
)

// TestWarningsCanonicalOrder pins the canonical warning order: warnings
// are reported sorted by (Fn, Pos, Label), not in execution order. The
// program below executes zwarn's critical use before main's, so the raw
// append order is [zwarn, main]; the canonical form sorts main first.
func TestWarningsCanonicalOrder(t *testing.T) {
	src := `
int zwarn() {
  int u;
  print(u);
  return 0;
}
int main() {
  int v;
  zwarn();
  print(v);
  return 0;
}`
	prog := usher.MustCompile("t.c", src)
	res, err := interp.Run(prog, "main", nil, interp.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.OracleWarnings) != 2 {
		t.Fatalf("oracle warnings = %v, want 2", res.OracleWarnings)
	}
	if res.OracleWarnings[0].Fn != "main" || res.OracleWarnings[1].Fn != "zwarn" {
		t.Errorf("warnings not in canonical (Fn, Pos, Label) order: %v", res.OracleWarnings)
	}
	if !sort.SliceIsSorted(res.OracleWarnings, func(i, j int) bool {
		return res.OracleWarnings[i].Fn < res.OracleWarnings[j].Fn
	}) {
		t.Errorf("oracle warnings unsorted: %v", res.OracleWarnings)
	}

	// The instrumented run's shadow warnings follow the same order.
	full := instrument.Full(prog)
	sres, err := interp.Run(prog, "main", nil, interp.Options{Shadow: &interp.ShadowConfig{Plan: full}})
	if err != nil {
		t.Fatalf("shadow run: %v", err)
	}
	if len(sres.ShadowWarnings) != 2 {
		t.Fatalf("shadow warnings = %v, want 2", sres.ShadowWarnings)
	}
	if sres.ShadowWarnings[0].Fn != "main" || sres.ShadowWarnings[1].Fn != "zwarn" {
		t.Errorf("shadow warnings not canonical: %v", sres.ShadowWarnings)
	}
}

// TestWarningsCanonicalOnTrap checks that a partial result carried by a
// runtime trap is canonicalized too.
func TestWarningsCanonicalOnTrap(t *testing.T) {
	src := `
int zwarn() {
  int u;
  print(u);
  return 0;
}
int main() {
  int v;
  zwarn();
  print(v);
  int *p = 0;
  return p[0];
}`
	prog := usher.MustCompile("t.c", src)
	_, err := interp.Run(prog, "main", nil, interp.Options{})
	var re *interp.RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("expected RuntimeError, got %v", err)
	}
	ws := re.Result.OracleWarnings
	if len(ws) != 2 || ws[0].Fn != "main" || ws[1].Fn != "zwarn" {
		t.Errorf("partial result warnings not canonical: %v", ws)
	}
}
