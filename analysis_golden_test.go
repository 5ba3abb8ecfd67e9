package usher_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/randprog"
	"github.com/valueflow/usher/internal/workload"
)

const analysisGoldenFile = "testdata/golden/analysis.json"

// goldenGraph pins one VFG variant: its node count and its ⊥ set, the
// latter as a count plus the SHA-256 of the ⊥ node ids in ascending
// order (one decimal id per line). Γ's bit vector indexes node ids, so
// the numbering itself is part of what is pinned.
type goldenGraph struct {
	Variant      string `json:"variant"`
	Nodes        int    `json:"nodes"`
	Bottom       int    `json:"bottom"`
	BottomSHA256 string `json:"bottom_sha256"`
}

// goldenPlan pins one configuration's plan by the SHA-256 of its
// Fingerprint, the ⊥ count of the Γ it was emitted against and the
// Opt I, Opt II and Opt III counters.
type goldenPlan struct {
	Config            string `json:"config"`
	FingerprintSHA256 string `json:"fingerprint_sha256"`
	Bottom            int    `json:"bottom"`
	MFCsSimplified    int    `json:"mfcs_simplified"`
	Redirected        int    `json:"redirected"`
	ChecksElided      int    `json:"checks_elided"`
}

// goldenAnalysis is one program's entry. A digest entry stores only
// EntrySHA256, the SHA-256 of the program's full entry in compact JSON,
// so that a large sweep fits the fixture at one line per input.
type goldenAnalysis struct {
	Name        string        `json:"name"`
	Level       string        `json:"level"`
	Graphs      []goldenGraph `json:"graphs,omitempty"`
	Plans       []goldenPlan  `json:"plans,omitempty"`
	EntrySHA256 string        `json:"entry_sha256,omitempty"`
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// goldenAnalyze records the static results of one prepared program.
func goldenAnalyze(t *testing.T, name, level string, prog *ir.Program) goldenAnalysis {
	t.Helper()
	ga := goldenAnalysis{Name: name, Level: level}
	sess := usher.NewSession(prog)
	for _, v := range []struct {
		name string
		tl   bool
	}{{"full", false}, {"top-level", true}} {
		g, gm, err := sess.Graph(v.tl)
		if err != nil {
			t.Fatalf("%s at %s: %s graph: %v", name, level, v.name, err)
		}
		var ids bytes.Buffer
		gm.BottomBits().ForEach(func(id int) { fmt.Fprintf(&ids, "%d\n", id) })
		ga.Graphs = append(ga.Graphs, goldenGraph{
			Variant:      v.name,
			Nodes:        len(g.Nodes),
			Bottom:       gm.BottomCount(),
			BottomSHA256: sha256Hex(ids.String()),
		})
	}
	for _, cfg := range usher.ExtendedConfigs {
		an, err := sess.Analyze(cfg)
		if err != nil {
			t.Fatalf("%s at %s: analyze %v: %v", name, level, cfg, err)
		}
		ga.Plans = append(ga.Plans, goldenPlan{
			Config:            cfg.String(),
			FingerprintSHA256: sha256Hex(an.Plan.Fingerprint()),
			Bottom:            an.Gamma.BottomCount(),
			MFCsSimplified:    an.MFCsSimplified,
			Redirected:        an.Redirected,
			ChecksElided:      an.ChecksElided,
		})
	}
	return ga
}

// goldenCompile compiles src and applies level.
func goldenCompile(t *testing.T, name, src string, level passes.Level) *ir.Program {
	t.Helper()
	prog, err := usher.Compile(name, src)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	if err := passes.Apply(prog, level); err != nil {
		t.Fatalf("%s at %s: %v", name, level, err)
	}
	return prog
}

// goldenDigest reduces a full entry to its digest entry.
func goldenDigest(ga goldenAnalysis) goldenAnalysis {
	j, err := json.Marshal(ga)
	if err != nil {
		panic(err)
	}
	return goldenAnalysis{Name: ga.Name, Level: ga.Level, EntrySHA256: sha256Hex(string(j))}
}

// goldenAnalyses covers the interpreter golden's inputs plus two
// IR-built graphs, the small XL solver and resolve profiles, whose
// indirect calls fan out to many callees, in full entries. Digest
// entries follow for the paper's profiles at their full iteration
// counts, where two of each profile's six plan fingerprints differ from
// the tenth-scale ones, and for randprog seeds 0–499 at O0+IM.
func goldenAnalyses(t *testing.T) []goldenAnalysis {
	var out []goldenAnalysis
	for _, in := range goldenInputs(t) {
		for _, level := range in.levels {
			out = append(out, goldenAnalyze(t, in.name, level.String(), goldenCompile(t, in.name, in.src, level)))
		}
	}
	for _, name := range []string{"solver-xl-small", "resolve-xl-small"} {
		p, ok := workload.XLByName(name)
		if !ok {
			t.Fatalf("no XL profile %s", name)
		}
		out = append(out, goldenAnalyze(t, name, "ir", workload.BuildXL(p)))
	}
	level := passes.O0IM
	for _, p := range workload.Profiles {
		name := fmt.Sprintf("%s@iters=%d", p.Name, p.Iters)
		prog := goldenCompile(t, name, workload.Generate(p), level)
		out = append(out, goldenDigest(goldenAnalyze(t, name, level.String(), prog)))
	}
	for seed := 0; seed < 500; seed++ {
		name := fmt.Sprintf("randprog-seed%d", seed)
		prog := goldenCompile(t, name, randprog.Generate(int64(seed), randprog.DefaultOptions), level)
		out = append(out, goldenDigest(goldenAnalyze(t, name, level.String(), prog)))
	}
	return out
}

// encodeGolden lays entries out as an indented JSON array with each
// digest entry on one line.
func encodeGolden(entries []goldenAnalysis) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString("[")
	for i, ga := range entries {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n  ")
		var j []byte
		var err error
		if ga.EntrySHA256 != "" {
			j, err = json.Marshal(ga)
		} else {
			j, err = json.MarshalIndent(ga, "  ", "  ")
		}
		if err != nil {
			return nil, err
		}
		b.Write(j)
	}
	b.WriteString("\n]\n")
	return b.Bytes(), nil
}

// TestAnalysisGolden pins the static results a faster analysis must not
// change: every graph variant's node count and ⊥ set, and every
// configuration's plan, its Γ's ⊥ count and its optimization counters,
// to a committed fixture. A change that moves them on purpose
// regenerates it with `go test -run TestAnalysisGolden -update` and says
// why.
func TestAnalysisGolden(t *testing.T) {
	got, err := encodeGolden(goldenAnalyses(t))
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(analysisGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(analysisGoldenFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(analysisGoldenFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var g, w []goldenAnalysis
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatalf("%s: %v", analysisGoldenFile, err)
	}
	if len(g) != len(w) {
		t.Fatalf("%d programs, fixture has %d", len(g), len(w))
	}
	for i := range g {
		gj, _ := json.Marshal(g[i])
		wj, _ := json.Marshal(w[i])
		if !bytes.Equal(gj, wj) {
			t.Errorf("%s at %s:\n got %s\nwant %s", g[i].Name, g[i].Level, gj, wj)
		}
	}
	if !t.Failed() {
		t.Errorf("output differs from %s in layout only; regenerate it with -update", analysisGoldenFile)
	}
}
