package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/workload"
)

const testSrc = `
int main() {
  int x;
  int y = 0;
  if (y > 10) { x = 1; }
  print(x);
  return 0;
}
`

const cleanSrc = `
int main() {
  int total = 0;
  for (int i = 0; i < 10; i++) { total += i; }
  print(total);
  return 0;
}
`

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postAnalyze(t *testing.T, url string, req AnalyzeRequest) (*http.Response, *AnalyzeResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/analyze", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ar AnalyzeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp, &ar
}

// TestAnalyzeCacheHit is the tentpole's acceptance criterion: the second
// identical request must be a cache hit that runs ZERO pipeline passes —
// no pointer, memssa, vfg, resolve or plan work — and still returns the
// same warnings.
func TestAnalyzeCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	req := AnalyzeRequest{File: "warn.c", Source: testSrc, Configs: []string{"usher"}}

	resp1, ar1 := postAnalyze(t, ts.URL, req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d", resp1.StatusCode)
	}
	if ar1.CacheHit {
		t.Error("first request reported a cache hit")
	}
	if len(ar1.Phases) == 0 {
		t.Error("first request reported no pipeline phases")
	}
	if len(ar1.Configs) != 1 || ar1.Configs[0].Run == nil {
		t.Fatalf("malformed configs: %+v", ar1.Configs)
	}
	if len(ar1.Configs[0].Run.Warnings) == 0 {
		t.Error("known-buggy program produced no warnings")
	}

	resp2, ar2 := postAnalyze(t, ts.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d", resp2.StatusCode)
	}
	if !ar2.CacheHit {
		t.Error("second identical request missed the cache")
	}
	if len(ar2.Phases) != 0 {
		t.Errorf("cache hit ran %d pipeline passes, want 0: %+v", len(ar2.Phases), ar2.Phases)
	}
	if ar2.Key != ar1.Key {
		t.Errorf("keys differ across identical requests: %s vs %s", ar2.Key, ar1.Key)
	}
	if len(ar2.Configs[0].Run.Warnings) != len(ar1.Configs[0].Run.Warnings) {
		t.Error("cached session changed the warning count")
	}

	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("stats hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
}

// TestAnalyzeDistinctKeys pins the cache key: same source at a different
// optimization level is a different program.
func TestAnalyzeDistinctKeys(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	_, a := postAnalyze(t, ts.URL, AnalyzeRequest{Source: cleanSrc, Level: "O0"})
	_, b := postAnalyze(t, ts.URL, AnalyzeRequest{Source: cleanSrc, Level: "O2"})
	if a.Key == b.Key {
		t.Error("O0 and O2 share a cache key")
	}
	// The display file name must NOT be part of the key.
	_, c := postAnalyze(t, ts.URL, AnalyzeRequest{Source: cleanSrc, Level: "O0", File: "other.c"})
	if c.Key != a.Key || !c.CacheHit {
		t.Error("renaming the file changed the cache key")
	}
}

// TestAnalyzeMultiConfig checks a multi-config request and that the
// shared artifacts make the second config cheap (plan-only phases).
func TestAnalyzeMultiConfig(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, ar := postAnalyze(t, ts.URL, AnalyzeRequest{
		Source:  testSrc,
		Configs: []string{"msan", "usher", "optiii"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(ar.Configs) != 3 {
		t.Fatalf("got %d config results, want 3", len(ar.Configs))
	}
	msan, ush := ar.Configs[0], ar.Configs[1]
	if msan.StaticChecks <= ush.StaticChecks {
		t.Errorf("MSan checks (%d) not above Usher's (%d)", msan.StaticChecks, ush.StaticChecks)
	}
	// All three configs share one session: exactly one pointer pass ran.
	pointerRuns := int64(0)
	for _, ps := range ar.Phases {
		if ps.Pass == "pointer" {
			pointerRuns += ps.Runs
		}
	}
	if pointerRuns != 1 {
		t.Errorf("pointer pass ran %d times for 3 configs, want 1", pointerRuns)
	}
}

// TestAnalyzeCompileErrorNotCached submits a broken program twice: both
// must fail with 422 and neither may occupy the cache.
func TestAnalyzeCompileErrorNotCached(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	req := AnalyzeRequest{Source: "int main( { return 0; }"}
	for i := 0; i < 2; i++ {
		resp, _ := postAnalyze(t, ts.URL, req)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("attempt %d: status %d, want 422", i, resp.StatusCode)
		}
	}
	st := s.Stats()
	if st.CompileErrors != 2 {
		t.Errorf("compile_errors = %d, want 2", st.CompileErrors)
	}
	if st.Cache.Entries != 0 {
		t.Errorf("broken program is resident in the cache (%d entries)", st.Cache.Entries)
	}
}

// TestAnalyzeBadRequests sweeps the validation surface.
func TestAnalyzeBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBodyBytes: 512})
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"empty source", `{"source":""}`, http.StatusBadRequest},
		{"bad json", `{"source":`, http.StatusBadRequest},
		{"bad config", `{"source":"int main() { return 0; }","configs":["turbo"]}`, http.StatusBadRequest},
		{"bad level", `{"source":"int main() { return 0; }","level":"O9"}`, http.StatusBadRequest},
		{"oversized body", `{"source":"` + strings.Repeat("x", 600) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
	if resp, err := http.Get(ts.URL + "/analyze"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /analyze: status %d, want 405", resp.StatusCode)
		}
	}
}

// TestCacheEvictionBounds drives many distinct programs through a tiny
// cache budget and checks residency stays bounded while every request is
// still answered.
func TestCacheEvictionBounds(t *testing.T) {
	// Trivial programs cost ~20KiB of observed allocation each; a 64KiB
	// budget holds about three, forcing the sweep below to evict.
	s, ts := newTestServer(t, Options{CacheBytes: 64 << 10})
	run := false
	for i := 0; i < 8; i++ {
		src := fmt.Sprintf("int main() { int v%d = %d; print(v%d); return 0; }", i, i, i)
		resp, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Source: src, Run: &run})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	st := s.Stats()
	if st.Cache.Bytes > st.Cache.BudgetBytes {
		t.Errorf("resident %d bytes exceed the %d budget", st.Cache.Bytes, st.Cache.BudgetBytes)
	}
	if st.Cache.Evictions+st.Cache.Rejected == 0 {
		t.Error("8 programs through a 64KiB budget caused no evictions or rejections; sizes are not being accounted")
	}
	if st.Requests != 8 {
		t.Errorf("requests = %d, want 8", st.Requests)
	}
}

// TestStatsAndHealthEndpoints smoke-tests the observability surface,
// including pprof.
func TestStatsAndHealthEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	postAnalyze(t, ts.URL, AnalyzeRequest{Source: cleanSrc})

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Requests != 1 || st.Cache.Entries != 1 || len(st.Phases) == 0 {
		t.Errorf("stats after one request: requests=%d entries=%d phases=%d",
			st.Requests, st.Cache.Entries, len(st.Phases))
	}
	if st.HeapBytes == 0 {
		t.Error("heap_bytes not populated")
	}

	for _, path := range []string{"/healthz", "/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// TestAnalyzeConcurrentIdentical hammers one source from many clients at
// once (run under -race): exactly one compile happens, everyone gets the
// same key, and the pipeline runs each pass once across ALL requests.
func TestAnalyzeConcurrentIdentical(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	const clients = 8
	var wg sync.WaitGroup
	keys := make([]string, clients)
	errs := make([]error, clients)
	run := false
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(AnalyzeRequest{Source: testSrc, Run: &run})
			resp, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader(string(body)))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var ar AnalyzeResponse
			if errs[i] = json.NewDecoder(resp.Body).Decode(&ar); errs[i] == nil {
				keys[i] = ar.Key
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < clients; i++ {
		if keys[i] != keys[0] {
			t.Fatalf("client %d got key %s, client 0 got %s", i, keys[i], keys[0])
		}
	}
	st := s.Stats()
	if st.CacheMisses != 1 {
		t.Errorf("cache misses = %d for one distinct program, want 1", st.CacheMisses)
	}
	for _, ps := range st.Phases {
		if ps.Runs != 1 {
			t.Errorf("pass %s/%s ran %d times across %d concurrent clients, want 1",
				ps.Pass, ps.Variant, ps.Runs, clients)
		}
	}
}

// TestRequestTimeout pins the deadline path: a request that cannot get a
// worker (or finish) inside the budget gets a timeout status instead of
// hanging.
func TestRequestTimeout(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, Timeout: 50 * time.Millisecond})
	// Saturate the single worker slot directly.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	resp, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Source: cleanSrc})
	if resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 503 or 504", resp.StatusCode)
	}
	if s.Stats().Timeouts == 0 && resp.StatusCode == http.StatusGatewayTimeout {
		t.Error("timeout served but not counted")
	}
}

// TestRunReportsShadowViolations submits a program whose Usher plan reads
// cell shadows it never wrote (solver-small at O0+IM): the run must carry
// the violations, and a clean program's answer must omit the field.
func TestRunReportsShadowViolations(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	p, ok := workload.LargeByName("solver-small")
	if !ok {
		t.Fatal("no solver-small profile")
	}
	resp, ar := postAnalyze(t, ts.URL, AnalyzeRequest{Source: workload.GenerateLarge(p), Configs: []string{"usher"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	run := ar.Configs[0].Run
	if run == nil || len(run.ShadowViolations) == 0 {
		t.Fatalf("run reports no shadow violations: %+v", run)
	}
	if !strings.Contains(run.ShadowViolations[0], "uninitialized cell shadow") {
		t.Errorf("violation %q, want a read of an uninitialized cell shadow", run.ShadowViolations[0])
	}

	body, err := json.Marshal(AnalyzeRequest{Source: cleanSrc})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	answer, err := io.ReadAll(raw.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(answer), "shadow_violations") {
		t.Errorf("clean answer carries shadow_violations:\n%s", answer)
	}
}

// TestAnalyzePhasesCountTriggeredBuild pins whose passes a response
// lists: the request that builds a program reports its frontend passes
// (parse through scalar) along with its analysis passes; a request that
// coalesces onto another request's build, and a cache hit, report none
// of the build's passes.
func TestAnalyzePhasesCountTriggeredBuild(t *testing.T) {
	s := New(Options{})
	noRun := false
	frontend := []string{"parse", "typecheck", "lower", "mem2reg", "verify", "scalar"}
	passesOf := func(ar *AnalyzeResponse) map[string]bool {
		m := make(map[string]bool)
		for _, ps := range ar.Phases {
			m[ps.Pass] = true
		}
		return m
	}

	req := &AnalyzeRequest{Source: testSrc, Run: &noRun}
	first, herr := s.analyze(req, nil)
	if herr != nil {
		t.Fatal(herr)
	}
	got := passesOf(first)
	for _, p := range append(frontend, "pointer", "vfg", "plan") {
		if !got[p] {
			t.Errorf("the building request lists no %s pass: %+v", p, first.Phases)
		}
	}
	hit, herr := s.analyze(req, nil)
	if herr != nil {
		t.Fatal(herr)
	}
	if !hit.CacheHit || len(hit.Phases) != 0 {
		t.Errorf("cache hit %v lists %d passes, want a hit with none: %+v", hit.CacheHit, len(hit.Phases), hit.Phases)
	}

	// Claim a new program's entry and start its build as a concurrent
	// request would; a second request coalesces onto it mid-build.
	level, err := passes.ParseLevel("O0+IM")
	if err != nil {
		t.Fatal(err)
	}
	e, resident := s.lookup(Key(level, cleanSrc), "request.c", cleanSrc, nil, level)
	if resident {
		t.Fatal("a fresh program is already cached")
	}
	done := make(chan *AnalyzeResponse, 1)
	e.once.Do(func() {
		go func() {
			ar, herr := s.analyze(&AnalyzeRequest{Source: cleanSrc, Run: &noRun}, nil)
			if herr != nil {
				t.Error(herr)
			}
			done <- ar
		}()
		for s.coalesced.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		e.build()
	})
	waiter := <-done
	if waiter == nil {
		t.FailNow()
	}
	got = passesOf(waiter)
	for _, p := range frontend {
		if got[p] {
			t.Errorf("a coalesced waiter lists the build's %s pass: %+v", p, waiter.Phases)
		}
	}
	if !waiter.CacheHit || !got["plan"] {
		t.Errorf("waiter: cache hit %v, passes %+v; want a hit that ran its own plan", waiter.CacheHit, waiter.Phases)
	}
}
