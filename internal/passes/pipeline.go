package passes

import (
	"fmt"
	"strings"

	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/ssa"
)

// Level is an optimization level from the paper's evaluation.
type Level int

// Optimization levels.
const (
	// O0 applies nothing beyond lowering and mem2reg.
	O0 Level = iota
	// O0IM is the paper's debugging-friendly configuration: inlining of
	// function-pointer-argument functions and allocation wrappers (heap
	// cloning), then mem2reg.
	O0IM
	// O1 adds one round of scalar optimizations.
	O1
	// O2 adds small-function inlining and further rounds.
	O2
)

func (l Level) String() string {
	switch l {
	case O0:
		return "O0"
	case O0IM:
		return "O0+IM"
	case O1:
		return "O1"
	default:
		return "O2"
	}
}

// ParseLevel resolves a level name as String prints it, in any case;
// O0IM is accepted for O0+IM.
func ParseLevel(name string) (Level, error) {
	switch strings.ToUpper(name) {
	case "O0":
		return O0, nil
	case "O0+IM", "O0IM":
		return O0IM, nil
	case "O1":
		return O1, nil
	case "O2":
		return O2, nil
	}
	return 0, fmt.Errorf("unknown level %q (want O0, O0+IM, O1 or O2)", name)
}

// Apply runs the pipeline for the level, in place, and re-verifies the
// program.
func Apply(prog *ir.Program, level Level) error {
	if level >= O0IM {
		InlineFunctionPointerArgs(prog)
		InlineAllocWrappers(prog)
		ssa.Promote(prog)
		recompute(prog)
	}
	rounds := 0
	switch level {
	case O1:
		rounds = 1
	case O2:
		rounds = 3
	}
	if level >= O2 {
		InlineSmall(prog)
		ssa.Promote(prog)
		recompute(prog)
	}
	for i := 0; i < rounds; i++ {
		changed := 0
		changed += ConstFold(prog)
		changed += FoldBranches(prog)
		changed += CSE(prog)
		changed += DCE(prog)
		recompute(prog)
		if changed == 0 {
			break
		}
	}
	if err := ir.Verify(prog); err != nil {
		return fmt.Errorf("passes(%s) broke the IR: %w", level, err)
	}
	if err := ssa.VerifySSA(prog); err != nil {
		return fmt.Errorf("passes(%s) broke SSA: %w", level, err)
	}
	return nil
}

func recompute(prog *ir.Program) {
	for _, fn := range prog.Funcs {
		if fn.HasBody {
			ir.ComputeCFG(fn)
		}
	}
}
