package usher_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/interp"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures under testdata/golden")

const interpGoldenFile = "testdata/golden/interp_counts.json"

// goldenRun is everything a run reports that the interpreter's speed
// must not change: the exit value, the printed output, the paper's cost
// counts, the warning sites, the violation count and any trap.
type goldenRun struct {
	Config    string   `json:"config"`
	Exit      string   `json:"exit"`
	Out       []int64  `json:"out,omitempty"`
	OutLen    int      `json:"out_len,omitempty"`
	OutSHA256 string   `json:"out_sha256,omitempty"`
	Steps     int64    `json:"steps"`
	Props     int64    `json:"props"`
	Checks    int64    `json:"checks"`
	Oracle    []string `json:"oracle,omitempty"`
	Shadow    []string `json:"shadow,omitempty"`
	// Violations is len(ShadowViolations); FirstViolation pins the
	// message text.
	Violations     int    `json:"violations"`
	FirstViolation string `json:"first_violation,omitempty"`
	Trap           string `json:"trap,omitempty"`
}

type goldenProgram struct {
	Name  string      `json:"name"`
	Level string      `json:"level"`
	Runs  []goldenRun `json:"runs"`
}

// goldenInput is one program source to compile at some levels.
type goldenInput struct {
	name, src string
	levels    []passes.Level
}

// goldenInputs are the paper's 15 profiles at a tenth of their
// iterations (the benchmark's smoke scale), the small and medium solver
// profiles, and the committed sample and mutant programs, which cover
// memcpy, varargs, function pointers and struct copies.
func goldenInputs(t *testing.T) []goldenInput {
	var in []goldenInput
	o0im := []passes.Level{passes.O0IM}
	for _, p := range workload.Profiles {
		p.Iters /= 10
		in = append(in, goldenInput{p.Name, workload.Generate(p), o0im})
	}
	for _, p := range workload.LargeProfiles[:2] {
		in = append(in, goldenInput{p.Name, workload.GenerateLarge(p), o0im})
	}
	var files []string
	for _, pat := range []string{"testdata/*.c", "testdata/difftest/mutant-*.c"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) == 0 {
		t.Fatal("no sample programs under testdata")
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, goldenInput{filepath.ToSlash(f), string(data), []passes.Level{passes.O0IM, passes.O2}})
	}
	return in
}

func goldenRecord(config string, res *interp.Result, err error) goldenRun {
	r := goldenRun{
		Config:     config,
		Exit:       res.Exit.String(),
		Steps:      res.Steps,
		Props:      res.ShadowProps,
		Checks:     res.ShadowChecks,
		Violations: len(res.ShadowViolations),
	}
	if len(res.Out) <= 16 {
		r.Out = res.Out
	} else {
		var b strings.Builder
		for _, v := range res.Out {
			fmt.Fprintf(&b, "%d\n", v)
		}
		sum := sha256.Sum256([]byte(b.String()))
		r.OutLen, r.OutSHA256 = len(res.Out), hex.EncodeToString(sum[:])
	}
	for _, w := range res.OracleWarnings {
		r.Oracle = append(r.Oracle, w.String())
	}
	for _, w := range res.ShadowWarnings {
		r.Shadow = append(r.Shadow, w.String())
	}
	if len(res.ShadowViolations) > 0 {
		r.FirstViolation = res.ShadowViolations[0]
	}
	if err != nil {
		r.Trap = err.Error()
	}
	return r
}

func goldenPrograms(t *testing.T) []goldenProgram {
	var out []goldenProgram
	for _, in := range goldenInputs(t) {
		for _, level := range in.levels {
			prog, err := usher.Compile(in.name, in.src)
			if err != nil {
				t.Fatalf("%s: compile: %v", in.name, err)
			}
			if err := passes.Apply(prog, level); err != nil {
				t.Fatalf("%s at %s: %v", in.name, level, err)
			}
			gp := goldenProgram{Name: in.name, Level: level.String()}
			native, err := usher.RunNative(prog, usher.RunOptions{})
			gp.Runs = append(gp.Runs, goldenRecord("native", native, err))
			sess := usher.NewSession(prog)
			for _, cfg := range usher.ExtendedConfigs {
				an, err := sess.Analyze(cfg)
				if err != nil {
					t.Fatalf("%s at %s: analyze %v: %v", in.name, level, cfg, err)
				}
				res, err := an.Run(usher.RunOptions{})
				gp.Runs = append(gp.Runs, goldenRecord(cfg.String(), res, err))
			}
			out = append(out, gp)
		}
	}
	return out
}

// TestInterpGoldenCounts pins every dynamic figure the interpreter
// reports, natively and under all six configurations, to a committed
// fixture. A change that only makes the interpreter faster must leave it
// untouched; one that moves a count on purpose regenerates it with
// `go test -run TestInterpGoldenCounts -update` and says why.
func TestInterpGoldenCounts(t *testing.T) {
	progs := goldenPrograms(t)
	got, err := json.MarshalIndent(progs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(interpGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(interpGoldenFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(interpGoldenFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var w []goldenProgram
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatalf("%s: %v", interpGoldenFile, err)
	}
	if len(progs) != len(w) {
		t.Fatalf("%d programs, fixture has %d", len(progs), len(w))
	}
	for i, p := range progs {
		for j, r := range p.Runs {
			gj, _ := json.Marshal(r)
			var wj []byte
			if j < len(w[i].Runs) {
				wj, _ = json.Marshal(w[i].Runs[j])
			}
			if !bytes.Equal(gj, wj) {
				t.Errorf("%s at %s:\n got %s\nwant %s", p.Name, p.Level, gj, wj)
			}
		}
	}
	if !t.Failed() {
		t.Errorf("output differs from %s in layout only; regenerate it with -update", interpGoldenFile)
	}
}
