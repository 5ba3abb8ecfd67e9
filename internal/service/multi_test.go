package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/valueflow/usher/internal/stats"
)

// multiFiles is a small module set with one executed undefined-value
// use (main branches on the conditionally assigned u).
func multiFiles() []FileEntry {
	return []FileEntry{
		{Name: "lib", Source: "#include \"base\"\nint twice(int x) { return helper(x) + x; }\n"},
		{Name: "base", Source: "int helper(int v) { return v + 1; }\n"},
		{Name: "main", Source: `
#include "lib"
int main() {
  int u;
  int v = twice(3);
  if (v > 100) { u = 1; }
  if (u > 0) { v += 1; }
  print(v);
  return 0;
}
`},
	}
}

func TestAnalyzeMultiFile(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	run := true
	resp, ar := postAnalyze(t, ts.URL, AnalyzeRequest{Files: multiFiles(), Run: &run})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ar.CacheHit {
		t.Error("first multi-file request was a cache hit")
	}
	if ar.Modules == nil || ar.Modules.Count != 3 || ar.Modules.Compiled != 3 || ar.Modules.Reused != 0 {
		t.Fatalf("modules summary = %+v, want count 3, compiled 3", ar.Modules)
	}
	if len(ar.Configs) != 1 || ar.Configs[0].Run == nil {
		t.Fatalf("configs = %+v", ar.Configs)
	}
	if len(ar.Configs[0].Run.Warnings) == 0 {
		t.Error("planted undefined use produced no warning")
	}

	// Identical resubmission: same key, full cache hit, zero passes.
	resp2, ar2 := postAnalyze(t, ts.URL, AnalyzeRequest{Files: multiFiles(), Run: &run})
	if resp2.StatusCode != http.StatusOK || !ar2.CacheHit || ar2.Key != ar.Key {
		t.Fatalf("resubmission: status %d, hit %v, key match %v",
			resp2.StatusCode, ar2.CacheHit, ar2.Key == ar.Key)
	}
	if len(ar2.Phases) != 0 {
		t.Errorf("cache hit ran %d passes, want 0", len(ar2.Phases))
	}

	// A 1-line edit of one leaf module: new program key (a miss), but
	// the unaffected modules resolve from warm units.
	edited := multiFiles()
	edited[1].Source = strings.Replace(edited[1].Source, "v + 1", "v + 2", 1)
	resp3, ar3 := postAnalyze(t, ts.URL, AnalyzeRequest{Files: edited, Run: &run})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("edited set: status %d", resp3.StatusCode)
	}
	if ar3.CacheHit || ar3.Key == ar.Key {
		t.Fatal("edited set reused the old program key")
	}
	// base changed, so base, its dependent lib and main recompile —
	// every module here depends on base. Reused stays 0 for this shape;
	// the interesting half is module-cache hits when the edit misses a
	// module's closure:
	edited2 := multiFiles()
	edited2[2].Source = strings.Replace(edited2[2].Source, "twice(3)", "twice(4)", 1)
	resp4, ar4 := postAnalyze(t, ts.URL, AnalyzeRequest{Files: edited2, Run: &run})
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("edited main: status %d", resp4.StatusCode)
	}
	if ar4.Modules == nil || ar4.Modules.Reused != 2 || ar4.Modules.Compiled != 1 {
		t.Fatalf("after editing main only, modules = %+v, want reused 2 compiled 1", ar4.Modules)
	}

	st := s.Stats()
	if st.ModuleCache.Hits == 0 {
		t.Errorf("module cache recorded no hits: %+v", st.ModuleCache)
	}
}

// TestMultiFileStatsIncludeResolve pins the per-pass observability of
// module ("files") sessions: the resolution passes — resolve over the
// demanded graph variants and the Opt II re-resolution — must appear
// both in the request's own phase delta and in the /stats resident
// aggregate, exactly as they do for single-source sessions. The CI
// usherd smoke greps the same pass names out of a live /stats response.
func TestMultiFileStatsIncludeResolve(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	run := false
	resp, ar := postAnalyze(t, ts.URL, AnalyzeRequest{Files: multiFiles(), Run: &run})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	check := func(where string, phases []stats.PassStats) {
		t.Helper()
		seen := map[string]bool{}
		for _, ps := range phases {
			if ps.Runs > 0 {
				seen[ps.Pass] = true
			}
		}
		for _, pass := range []string{"resolve", "optII", "plan"} {
			if !seen[pass] {
				t.Errorf("%s omits the %s pass for a files session", where, pass)
			}
		}
	}
	check("request phase delta", ar.Phases)
	st := s.Stats()
	check("/stats aggregate", st.Phases)
	// The aggregate must still carry the module compile passes, proving
	// the resolve counters above come from the same files entry.
	var sawModuleCompile bool
	for _, ps := range st.Phases {
		if ps.Pass == "parse" && ps.Variant == "base" {
			sawModuleCompile = true
		}
	}
	if !sawModuleCompile {
		t.Error("/stats aggregate lost the per-module compile passes")
	}
}

func TestAnalyzeMultiFileErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	post := func(req AnalyzeRequest) int {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// source and files together are ambiguous.
	if got := post(AnalyzeRequest{Source: "int main() { return 0; }", Files: multiFiles()}); got != http.StatusBadRequest {
		t.Errorf("source+files: status %d, want 400", got)
	}
	// Empty files carry nothing to analyze.
	if got := post(AnalyzeRequest{Files: []FileEntry{{Name: "a"}}}); got != http.StatusBadRequest {
		t.Errorf("empty files: status %d, want 400", got)
	}
	// Graph errors are the client's fault.
	cyc := []FileEntry{
		{Name: "a", Source: "#include \"b\"\nint f();\n"},
		{Name: "b", Source: "#include \"a\"\nint g();\n"},
	}
	if got := post(AnalyzeRequest{Files: cyc}); got != http.StatusUnprocessableEntity {
		t.Errorf("cycle: status %d, want 422", got)
	}
	// So are per-module compile errors.
	broken := []FileEntry{
		{Name: "main", Source: "int main() { return undefined_fn(); }\n"},
	}
	if got := post(AnalyzeRequest{Files: broken}); got != http.StatusUnprocessableEntity {
		t.Errorf("compile error: status %d, want 422", got)
	}
}

// TestSingleFlightNoRebuild pins the fixed publication order in
// finish(): across many rounds of concurrent identical submissions,
// every key compiles exactly once — no request can slip between the
// in-flight claim being dropped and the LRU publication, because both
// happen under the same lock. Run under -race in CI.
func TestSingleFlightNoRebuild(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	const rounds, clients = 6, 8
	run := false
	for r := 0; r < rounds; r++ {
		src := fmt.Sprintf("int main() { int x = %d; print(x); return 0; }", r)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body, _ := json.Marshal(AnalyzeRequest{Source: src, Run: &run})
				resp, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader(string(body)))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
				}
			}()
		}
		wg.Wait()
	}
	st := s.Stats()
	if st.CacheMisses != rounds {
		t.Errorf("cache misses = %d for %d distinct programs, want %d (a rebuild slipped through the single-flight window)",
			st.CacheMisses, rounds, rounds)
	}
	if st.CacheHits != rounds*(clients-1) {
		t.Errorf("cache hits = %d, want %d", st.CacheHits, rounds*(clients-1))
	}
	for _, ps := range st.Phases {
		if ps.Runs != rounds {
			t.Errorf("pass %s/%s ran %d times, want %d", ps.Pass, ps.Variant, ps.Runs, rounds)
		}
	}
}
