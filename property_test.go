package usher_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/interp"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/randprog"
	"github.com/valueflow/usher/internal/ssa"
)

// runSeed compiles and executes one random program under every
// configuration, checking the soundness invariants of DESIGN.md. It
// returns an error describing the first violation.
func checkSeed(seed int64) error {
	src := randprog.Generate(seed, randprog.DefaultOptions)
	prog, err := usher.Compile("rand.c", src)
	if err != nil {
		return errseed(seed, "compile", err)
	}
	native, err := usher.RunNative(prog, usher.RunOptions{})
	if err != nil {
		// A runtime trap (e.g. masked index on a freed block) would be a
		// generator bug: surface it.
		return errseed(seed, "native run", err)
	}
	oracle := native.OracleSites()

	for _, cfg := range usher.Configs {
		an := usher.MustAnalyze(prog, cfg)
		res, err := an.Run(usher.RunOptions{})
		if err != nil {
			return errseed(seed, cfg.String()+" run", err)
		}
		if len(res.ShadowViolations) > 0 {
			return errseedf(seed, "%v: shadow violation: %s", cfg, res.ShadowViolations[0])
		}
		if res.Exit.Int != native.Exit.Int {
			return errseedf(seed, "%v: exit %d != native %d", cfg, res.Exit.Int, native.Exit.Int)
		}
		shadow := res.ShadowSites()
		for s := range shadow {
			if !oracle[s] {
				return errseedf(seed, "%v: false positive at %v", cfg, s)
			}
		}
		if cfg == usher.ConfigUsherFull {
			if len(oracle) > 0 && len(shadow) == 0 {
				return errseedf(seed, "%v: every oracle site suppressed (oracle has %d)", cfg, len(oracle))
			}
			continue
		}
		for s := range oracle {
			if !shadow[s] {
				return errseedf(seed, "%v: missed oracle site %v", cfg, s)
			}
		}
	}
	return nil
}

func errseed(seed int64, what string, err error) error {
	return fmt.Errorf("seed %d: %s: %w", seed, what, err)
}

func errseedf(seed int64, format string, args ...any) error {
	return errseed(seed, "property", fmt.Errorf(format, args...))
}

// TestPropertySoundnessRandomPrograms fuzzes the full pipeline over a
// fixed range of seeds: every configuration must report exactly the
// oracle's undefined-value uses (Opt II may suppress dominated duplicates
// but never everything), with no fabricated reports, no uninitialized
// shadow reads, and unchanged program semantics.
func TestPropertySoundnessRandomPrograms(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 25
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		if err := checkSeed(seed); err != nil {
			src := randprog.Generate(seed, randprog.DefaultOptions)
			t.Fatalf("%v\n--- program ---\n%s", err, src)
		}
	}
}

// TestPropertySSAInvariants uses testing/quick to check that every
// optimization level preserves SSA well-formedness and semantics on
// random programs.
func TestPropertySSAInvariants(t *testing.T) {
	property := func(seed int64) bool {
		seed &= 0xffff
		src := randprog.Generate(seed, randprog.DefaultOptions)
		base := usher.MustCompile("rand.c", src)
		baseRes, err := interp.Run(base, "main", nil, interp.Options{})
		if err != nil {
			t.Logf("seed %d: native: %v", seed, err)
			return false
		}
		for _, level := range []passes.Level{passes.O0IM, passes.O1, passes.O2} {
			prog := usher.MustCompile("rand.c", src)
			if err := passes.Apply(prog, level); err != nil {
				t.Logf("seed %d: %v: %v", seed, level, err)
				return false
			}
			if err := ssa.VerifySSA(prog); err != nil {
				t.Logf("seed %d: %v: SSA broken: %v", seed, level, err)
				return false
			}
			res, err := interp.Run(prog, "main", nil, interp.Options{})
			if err != nil {
				t.Logf("seed %d: %v run: %v", seed, level, err)
				return false
			}
			if res.Exit.Int != baseRes.Exit.Int {
				t.Logf("seed %d: %v: exit %d != %d", seed, level, res.Exit.Int, baseRes.Exit.Int)
				return false
			}
			if len(res.Out) != len(baseRes.Out) {
				t.Logf("seed %d: %v: output length changed", seed, level)
				return false
			}
			for i := range res.Out {
				if res.Out[i] != baseRes.Out[i] {
					t.Logf("seed %d: %v: output[%d] %d != %d", seed, level, i, res.Out[i], baseRes.Out[i])
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMonotoneStaticCounts checks invariant 5 on random programs:
// each configuration's static counts never exceed the previous one's.
func TestPropertyMonotoneStaticCounts(t *testing.T) {
	property := func(seed int64) bool {
		seed &= 0xffff
		src := randprog.Generate(seed, randprog.DefaultOptions)
		prog := usher.MustCompile("rand.c", src)
		prevProps, prevChecks := -1, -1
		for _, cfg := range usher.Configs {
			st := usher.MustAnalyze(prog, cfg).StaticStats()
			if prevProps >= 0 && (st.Props > prevProps || st.Checks > prevChecks) {
				t.Logf("seed %d: %v has props=%d checks=%d after %d/%d",
					seed, cfg, st.Props, st.Checks, prevProps, prevChecks)
				return false
			}
			prevProps, prevChecks = st.Props, st.Checks
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestLargeRandomPrograms stresses the pipeline with bigger generated
// programs (deeper nesting, more helpers) under the Usher configuration.
func TestLargeRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("large programs")
	}
	big := randprog.Options{Helpers: 8, StmtsPerFunc: 30, MaxDepth: 4, UninitFrac: 0.3}
	for seed := int64(0); seed < 20; seed++ {
		src := randprog.Generate(seed, big)
		prog, err := usher.Compile("big.c", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		native, err := usher.RunNative(prog, usher.RunOptions{})
		if err != nil {
			t.Fatalf("seed %d native: %v", seed, err)
		}
		an := usher.MustAnalyze(prog, usher.ConfigUsherFull)
		res, err := an.Run(usher.RunOptions{})
		if err != nil {
			t.Fatalf("seed %d usher: %v", seed, err)
		}
		if len(res.ShadowViolations) != 0 {
			t.Fatalf("seed %d violations: %v", seed, res.ShadowViolations)
		}
		oracle := native.OracleSites()
		for s := range res.ShadowSites() {
			if !oracle[s] {
				t.Fatalf("seed %d: false positive %v", seed, s)
			}
		}
		if len(oracle) > 0 && len(res.ShadowSites()) == 0 {
			t.Fatalf("seed %d: all reports suppressed", seed)
		}
	}
}
