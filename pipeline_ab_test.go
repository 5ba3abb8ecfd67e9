package usher_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/randprog"
	"github.com/valueflow/usher/internal/workload"
)

// The pipeline A/B harness: side A analyzes each configuration with a
// standalone usher.Analyze, so no artifact is shared between
// configurations; side B analyzes every configuration in turn from one
// Session, on its own compile of the same program. Every test below
// demands the same plans, definedness and optimization statistics from
// both, so a pass that mutates a shared artifact shows up as a
// divergence. TestAnalysisGolden pins the figures themselves, on the same
// inputs, to the values the hand-wired pre-pass-manager flow produced.

// abResult is the comparable essence of one configuration's analysis.
type abResult struct {
	Fingerprint    string
	Bottom         int
	MFCsSimplified int
	Redirected     int
	ChecksElided   int
}

func summarize(a *usher.Analysis) abResult {
	return abResult{
		Fingerprint:    a.Plan.Fingerprint(),
		Bottom:         a.Gamma.BottomCount(),
		MFCsSimplified: a.MFCsSimplified,
		Redirected:     a.Redirected,
		ChecksElided:   a.ChecksElided,
	}
}

func abCompile(t *testing.T, file, src string, level passes.Level) *ir.Program {
	t.Helper()
	prog, err := usher.Compile(file, src)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	if err := passes.Apply(prog, level); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return prog
}

// abCheck compares the standalone and session analyses of one program
// under every extended configuration and returns both sides' analyses in
// usher.ExtendedConfigs order.
func abCheck(t *testing.T, name string, standaloneProg, sessionProg *ir.Program) (standalone, session []*usher.Analysis) {
	t.Helper()
	s := usher.NewSession(sessionProg)
	for _, cfg := range usher.ExtendedConfigs {
		a, err := usher.Analyze(standaloneProg, cfg)
		if err != nil {
			t.Fatalf("%s/%s: standalone analyze: %v", name, cfg, err)
		}
		b, err := s.Analyze(cfg)
		if err != nil {
			t.Fatalf("%s/%s: session analyze: %v", name, cfg, err)
		}
		if want, got := summarize(a), summarize(b); got != want {
			t.Errorf("%s/%s: session diverges from standalone analysis:\nstandalone: %+v\nsession:    %+v", name, cfg, want, got)
		}
		standalone = append(standalone, a)
		session = append(session, b)
	}
	return standalone, session
}

// TestPipelineABCorpus covers the hand-written example corpus, including
// the dynamic warning sites: identical plans must yield identical
// interpreter warnings.
func TestPipelineABCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/*.c")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			src := string(data)
			as, bs := abCheck(t, file, abCompile(t, file, src, passes.O0IM), abCompile(t, file, src, passes.O0IM))
			for i, cfg := range usher.ExtendedConfigs {
				ares, err := as[i].Run(usher.RunOptions{})
				if err != nil {
					t.Fatalf("%s: standalone run: %v", cfg, err)
				}
				bres, err := bs[i].Run(usher.RunOptions{})
				if err != nil {
					t.Fatalf("%s: session run: %v", cfg, err)
				}
				if !reflect.DeepEqual(ares.ShadowWarnings, bres.ShadowWarnings) {
					t.Errorf("%s: warning sites diverge:\nstandalone: %v\nsession:    %v", cfg, ares.ShadowWarnings, bres.ShadowWarnings)
				}
			}
		})
	}
}

// TestPipelineABWorkloads covers every synthetic SPEC2000 stand-in
// profile under O0+IM (the level the paper's tables use).
func TestPipelineABWorkloads(t *testing.T) {
	profiles := workload.Profiles
	if testing.Short() {
		profiles = profiles[:3]
	}
	for _, p := range profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			src := workload.Generate(p)
			abCheck(t, p.Name, abCompile(t, p.Name+".c", src, passes.O0IM), abCompile(t, p.Name+".c", src, passes.O0IM))
		})
	}
}

// TestPipelineABRandom sweeps generated programs through both sides.
func TestPipelineABRandom(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 50
	}
	for seed := 0; seed < seeds; seed++ {
		src := randprog.Generate(int64(seed), randprog.DefaultOptions)
		name := fmt.Sprintf("seed%d.c", seed)
		standaloneProg, err := usher.Compile(name, src)
		if err != nil {
			continue // generator can emit ill-typed programs; not this test's concern
		}
		if err := passes.Apply(standaloneProg, passes.O0IM); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		abCheck(t, name, standaloneProg, abCompile(t, name, src, passes.O0IM))
	}
}
