package pointer_test

import (
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/workload"
)

func benchProgFor(b *testing.B, name string) *ir.Program {
	b.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		b.Fatalf("no workload %s", name)
	}
	src := workload.Generate(p)
	prog, err := usher.Compile(p.Name+".c", src)
	if err != nil {
		b.Fatal(err)
	}
	if err := passes.Apply(prog, passes.O0IM); err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkPointerSolve measures the inclusion-based solve on a mid-size
// program.
func BenchmarkPointerSolve(b *testing.B) {
	prog := benchProgFor(b, "mesa")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := pointer.Analyze(prog)
		if res == nil {
			b.Fatal("no result")
		}
	}
}

// BenchmarkPointerSolveLarge measures the solve on the largest suite
// program.
func BenchmarkPointerSolveLarge(b *testing.B) {
	prog := benchProgFor(b, "gcc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pointer.Analyze(prog)
	}
}

// BenchmarkPointerQueries measures the read-only query surface (frozen
// after solving): PointsTo over every load/store address in the program.
func BenchmarkPointerQueries(b *testing.B) {
	prog := benchProgFor(b, "mesa")
	res := pointer.Analyze(prog)
	var addrs []ir.Value
	for _, fn := range prog.Funcs {
		for _, blk := range fn.Blocks {
			for _, in := range blk.Instrs {
				switch in := in.(type) {
				case *ir.Load:
					addrs = append(addrs, in.Addr)
				case *ir.Store:
					addrs = append(addrs, in.Addr)
				}
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, a := range addrs {
			n += len(res.PointsTo(a))
		}
		if n == 0 {
			b.Fatal("no points-to facts")
		}
	}
}

// benchLargeProg compiles a solver-scaling profile (see
// internal/workload.LargeProfiles) under O0+IM.
func benchLargeProg(b *testing.B, name string) *ir.Program {
	b.Helper()
	p, ok := workload.LargeByName(name)
	if !ok {
		b.Fatalf("no large profile %s", name)
	}
	src := workload.GenerateLarge(p)
	prog, err := usher.Compile(p.Name+".c", src)
	if err != nil {
		b.Fatal(err)
	}
	if err := passes.Apply(prog, passes.O0IM); err != nil {
		b.Fatal(err)
	}
	return prog
}

// The BenchmarkSolver* family times the solver on the solver-scaling
// profiles (see EXPERIMENTS.md, "Solver scaling"). CI runs them with
// -benchtime=1x as a smoke test.

func BenchmarkSolverLarge(b *testing.B) {
	prog := benchLargeProg(b, "solver-large")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pointer.Analyze(prog)
	}
}

func BenchmarkSolverMedium(b *testing.B) {
	prog := benchLargeProg(b, "solver-medium")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pointer.Analyze(prog)
	}
}

func BenchmarkSolverSmall(b *testing.B) {
	prog := benchLargeProg(b, "solver-small")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pointer.Analyze(prog)
	}
}
