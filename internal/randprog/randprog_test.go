package randprog_test

import (
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/interp"
	"github.com/valueflow/usher/internal/randprog"
)

func TestDeterministic(t *testing.T) {
	a := randprog.Generate(42, randprog.DefaultOptions)
	b := randprog.Generate(42, randprog.DefaultOptions)
	if a != b {
		t.Fatal("generation is not deterministic")
	}
}

// TestSeedsCompileAndTerminate checks that a wide seed range produces
// well-formed programs that execute without traps and within budget.
func TestSeedsCompileAndTerminate(t *testing.T) {
	n := int64(500)
	if testing.Short() {
		n = 100
	}
	for seed := int64(0); seed < n; seed++ {
		src := randprog.Generate(seed, randprog.DefaultOptions)
		prog, err := usher.Compile("rand.c", src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if _, err := interp.Run(prog, "main", nil, interp.Options{MaxSteps: 2_000_000}); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
	}
}

// TestGeneratesUndefinedUses confirms the generator actually produces
// programs with real bugs sometimes — otherwise the soundness properties
// would be vacuous.
func TestGeneratesUndefinedUses(t *testing.T) {
	buggy := 0
	for seed := int64(0); seed < 100; seed++ {
		src := randprog.Generate(seed, randprog.DefaultOptions)
		prog, err := usher.Compile("rand.c", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := interp.Run(prog, "main", nil, interp.Options{MaxSteps: 2_000_000})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.OracleWarnings) > 0 {
			buggy++
		}
	}
	if buggy < 10 {
		t.Errorf("only %d/100 seeds produced undefined uses; properties are near-vacuous", buggy)
	}
	if buggy > 95 {
		t.Errorf("%d/100 seeds buggy; clean-program properties are near-vacuous", buggy)
	}
}

// TestCleanLabelTrustworthy pins the implied ground-truth labeling: a
// program labeled Clean — no uninitialized locals, no malloc'd blocks —
// must run natively without traps and with an empty oracle. The converse
// is deliberately not asserted (an uninitialized local may go unread),
// so only the Clean direction may be relied upon by tests and by the
// differential harness.
func TestCleanLabelTrustworthy(t *testing.T) {
	n := int64(2000)
	if testing.Short() {
		n = 300
	}
	clean := 0
	for seed := int64(0); seed < n; seed++ {
		src, info := randprog.GenerateInfo(seed, randprog.DefaultOptions)
		if !info.Clean() {
			continue
		}
		clean++
		prog, err := usher.Compile("rand.c", src)
		if err != nil {
			t.Fatalf("seed %d: clean program does not compile: %v\n%s", seed, err, src)
		}
		res, err := interp.Run(prog, "main", nil, interp.Options{MaxSteps: 2_000_000})
		if err != nil {
			t.Fatalf("seed %d: clean program trapped: %v\n%s", seed, err, src)
		}
		if len(res.OracleWarnings) != 0 {
			t.Fatalf("seed %d: clean program warned: %v\n%s", seed, res.OracleWarnings[0], src)
		}
	}
	if clean == 0 {
		t.Fatal("no clean programs generated; the Clean property is vacuous")
	}
}

// TestUninitUsesReachable checks that the generator's forced tail reads
// make a healthy fraction of non-clean programs actually reach an
// undefined use: without reachability the differential campaign would
// mostly compare empty warning sets.
func TestUninitUsesReachable(t *testing.T) {
	nonClean, warned := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		src, info := randprog.GenerateInfo(seed, randprog.DefaultOptions)
		if info.Clean() {
			continue
		}
		nonClean++
		prog, err := usher.Compile("rand.c", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := interp.Run(prog, "main", nil, interp.Options{MaxSteps: 2_000_000})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if len(res.OracleWarnings) > 0 {
			warned++
		}
	}
	if nonClean == 0 {
		t.Fatal("no non-clean programs generated")
	}
	if frac := float64(warned) / float64(nonClean); frac < 0.15 {
		t.Errorf("only %d/%d (%.0f%%) non-clean programs reach an undefined use; generator bugs are mostly dead code",
			warned, nonClean, frac*100)
	}
}
