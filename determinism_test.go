package usher_test

import (
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/workload"
)

// TestCompileAndAnalyzeDeterministic compiles and analyzes the same
// source twice and requires identical instrumentation plans. Register
// numbering, phi placement order and plan emission must all be
// run-to-run deterministic, or the -parallel N / -parallel 1 output
// equivalence guarantee of usher-bench is meaningless.
func TestCompileAndAnalyzeDeterministic(t *testing.T) {
	fp := func() string {
		p, ok := workload.ByName("equake")
		if !ok {
			t.Fatal("no workload equake")
		}
		src := workload.Generate(p)
		prog, err := usher.Compile(p.Name+".c", src)
		if err != nil {
			t.Fatal(err)
		}
		if err := passes.Apply(prog, passes.O0IM); err != nil {
			t.Fatal(err)
		}
		return usher.MustAnalyze(prog, usher.ConfigUsherFull).Plan.Fingerprint()
	}
	a, b := fp(), fp()
	if a != b {
		t.Fatalf("two compilations of the same source produced different plans:\n%s\n---\n%s", a, b)
	}
}
