package pointer

// White-box benchmark for the constraint-generation phase alone: the
// two-level slice interning (regNodes/fieldNodes keyed by the IR's dense
// ids). The solve phase is deliberately excluded — BenchmarkSolver* in
// solver_bench_test.go covers it end to end.

import (
	"testing"

	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/lower"
	"github.com/valueflow/usher/internal/parser"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/ssa"
	"github.com/valueflow/usher/internal/types"
	"github.com/valueflow/usher/internal/workload"
)

// compileSource is a minimal frontend for this white-box benchmark. It
// lives in package pointer (not pointer_test) for solver access, so it
// cannot call pipeline.Compile: internal/pipeline imports this package.
func compileSource(file, src string) (*ir.Program, error) {
	astProg, err := parser.Parse(file, src)
	if err != nil {
		return nil, err
	}
	info, err := types.Check(astProg)
	if err != nil {
		return nil, err
	}
	irp, err := lower.Lower(astProg, info)
	if err != nil {
		return nil, err
	}
	ssa.Promote(irp)
	for _, fn := range irp.Funcs {
		ir.ComputeCFG(fn)
	}
	return irp, nil
}

func generateBenchProg(b *testing.B) *ir.Program {
	b.Helper()
	p, ok := workload.LargeByName("solver-medium")
	if !ok {
		b.Fatal("no solver-medium profile")
	}
	prog, err := compileSource(p.Name+".c", workload.GenerateLarge(p))
	if err != nil {
		b.Fatal(err)
	}
	if err := passes.Apply(prog, passes.O0IM); err != nil {
		b.Fatal(err)
	}
	return prog
}

func BenchmarkSolverGenerate(b *testing.B) {
	prog := generateBenchProg(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newSolver(prog)
		s.generate()
	}
}
