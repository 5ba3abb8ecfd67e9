package workload

import (
	"testing"

	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/pointer"
)

// TestBuildXLDeterministic pins the generator: identical profiles must
// print to identical IR (the analysis golden file depends on this).
func TestBuildXLDeterministic(t *testing.T) {
	p, ok := XLByName("solver-xl-small")
	if !ok {
		t.Fatal("solver-xl-small missing")
	}
	a, b := ir.Print(BuildXL(p)), ir.Print(BuildXL(p))
	if a != b {
		t.Fatal("BuildXL is not deterministic")
	}
}

// TestXLConstraintScale pins the scale claim behind the profile names:
// solver-xl must present the solver with at least a million constraints
// (complex constraints + copy-edge insertions), an order of magnitude
// over the solver-large MiniC profile. The floors are deliberately below
// current measurements so solver improvements don't break the test, but
// high enough that a structural regression in the generator (lost
// fan-out, deduplicated return edges) fails loudly.
func TestXLConstraintScale(t *testing.T) {
	floors := map[string]int{
		"solver-xl-small":  15_000,
		"solver-xl-medium": 120_000,
		"solver-xl":        1_000_000,
	}
	for _, p := range XLProfiles {
		if testing.Short() && p.Name == "solver-xl" {
			continue
		}
		prog := BuildXL(p)
		res := pointer.Analyze(prog)
		total := res.Stats.Constraints + res.Stats.CopyEdges
		if floor := floors[p.Name]; total < floor {
			t.Errorf("%s: %d constraints (complex %d + copy %d), want >= %d",
				p.Name, total, res.Stats.Constraints, res.Stats.CopyEdges, floor)
		}
	}
}
