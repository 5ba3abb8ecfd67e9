package pipeline

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/stats"
)

const storeTestSrc = `
int decide(int input) {
  int mode;
  if (input > 10) { mode = input * 2; }
  if (mode > 15) { return 1; }
  return 0;
}

int main() {
  int hits = 0;
  for (int i = 0; i < 20; i++) { hits += decide(i); }
  print(hits);
  return 0;
}
`

// testSpecs mirrors the six instrumentation configurations (the store is
// config-agnostic; usher's config table feeds it equivalent specs).
var testSpecs = []PlanSpec{
	{Name: "MSan", Full: true},
	{Name: "UsherTL", TopLevelOnly: true, MemoryFull: true},
	{Name: "UsherTL+AT"},
	{Name: "UsherOptI", OptI: true},
	{Name: "Usher", OptI: true, OptII: true},
	{Name: "Usher+OptIII", OptI: true, OptII: true, OptIII: true},
}

func compileTestProg(t *testing.T, sc *stats.Collector) *Store {
	t.Helper()
	prog, err := Compile("store_test.c", storeTestSrc, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyLevel(prog, passes.O0IM, sc); err != nil {
		t.Fatal(err)
	}
	return NewStore(prog, sc)
}

// TestStoreExactlyOnce drives every artifact from many goroutines at once
// (run under -race in CI) and checks through the collector that each
// pass/variant pair ran exactly one time.
func TestStoreExactlyOnce(t *testing.T) {
	sc := stats.New()
	st := compileTestProg(t, sc)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, spec := range testSpecs {
				if _, err := st.Plan(spec); err != nil {
					errs[i] = err
					return
				}
			}
			if _, err := st.Pointer(); err != nil {
				errs[i] = err
			}
			if _, err := st.Graph(true); err != nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	snap := sc.Snapshot()
	if len(snap) == 0 {
		t.Fatal("collector recorded nothing")
	}
	seen := make(map[Key]bool)
	for _, ps := range snap {
		if ps.Runs != 1 {
			t.Errorf("pass %s variant %q ran %d times, want exactly 1", ps.Pass, ps.Variant, ps.Runs)
		}
		k := Key{ps.Pass, ps.Variant}
		if seen[k] {
			t.Errorf("pass %s variant %q reported twice in snapshot", ps.Pass, ps.Variant)
		}
		seen[k] = true
	}
	// The sweep over all six configurations must have materialized both
	// graph flavors, the shared Opt II artifact, and one plan per config.
	for _, want := range []Key{
		{"pointer", ""}, {"memssa", ""},
		{"vfg", "full"}, {"vfg", "tl"},
		{"resolve", "full"}, {"resolve", "tl"},
		{"optII", ""},
	} {
		if !seen[want] {
			t.Errorf("missing snapshot entry for %v", want)
		}
	}
	for _, spec := range testSpecs {
		if !seen[Key{"plan", spec.Name}] {
			t.Errorf("missing plan entry for config %s", spec.Name)
		}
	}
}

// TestStoreSharesArtifacts pins the pointer-identity sharing contract:
// config-invariant artifacts are the same object no matter which consumer
// asks, and the two graph flavors stay distinct.
func TestStoreSharesArtifacts(t *testing.T) {
	st := compileTestProg(t, nil)
	pa1, err := st.Pointer()
	if err != nil {
		t.Fatal(err)
	}
	pa2, _ := st.Pointer()
	if pa1 != pa2 {
		t.Error("Pointer() returned distinct results across calls")
	}
	full, err := st.Graph(false)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := st.Graph(true)
	if err != nil {
		t.Fatal(err)
	}
	if full == tl {
		t.Error("full and top-level-only graphs share one artifact slot")
	}
	if full2, _ := st.Graph(false); full2 != full {
		t.Error("Graph(false) returned distinct graphs across calls")
	}
	o1, err := st.OptII()
	if err != nil {
		t.Fatal(err)
	}
	if o2, _ := st.OptII(); o1 != o2 {
		t.Error("OptII() returned distinct artifacts across calls")
	}
}

// TestStoreCachedError checks the cached-error half of the memoization
// contract: a failing pass body runs once, and every later request for
// that key observes the identical error value.
func TestStoreCachedError(t *testing.T) {
	st := compileTestProg(t, nil)
	boom := errors.New("boom")
	calls := 0
	fail := func() (any, map[string]int64, error) {
		calls++
		return nil, nil, boom
	}
	// "plan"/"broken" is a legal registry key whose real producer is never
	// invoked here; run is exercised directly to isolate the caching.
	_, err1 := st.run("plan", "broken", fail)
	_, err2 := st.run("plan", "broken", fail)
	if calls != 1 {
		t.Fatalf("failing pass body ran %d times, want 1", calls)
	}
	if err1 != boom {
		t.Fatalf("first error = %v, want the pass's own error", err1)
	}
	if err2 != err1 {
		t.Fatalf("cached error not identical: %v vs %v", err2, err1)
	}
}

// TestStoreCachedPanic checks that a panicking pass is converted to a
// diagnostic error once and never re-entered.
func TestStoreCachedPanic(t *testing.T) {
	st := compileTestProg(t, nil)
	calls := 0
	explode := func() (any, map[string]int64, error) {
		calls++
		panic("store_test: deliberate panic")
	}
	_, err1 := st.run("plan", "panicking", explode)
	_, err2 := st.run("plan", "panicking", explode)
	if calls != 1 {
		t.Fatalf("panicking pass body ran %d times, want 1", calls)
	}
	if err1 == nil {
		t.Fatal("panic was not converted to an error")
	}
	if err2 != err1 {
		t.Fatalf("cached panic error not identical: %v vs %v", err2, err1)
	}
}

// TestStoreEvictErrorsRetries pins the retry path a long-lived process
// depends on: a cached failure is replayed until EvictErrors discards
// it, after which the same key re-runs its pass and can succeed.
func TestStoreEvictErrorsRetries(t *testing.T) {
	st := compileTestProg(t, nil)
	transient := errors.New("transient failure")
	calls := 0
	flaky := func() (any, map[string]int64, error) {
		calls++
		if calls == 1 {
			return nil, nil, transient
		}
		return "recovered", nil, nil
	}
	if _, err := st.run("plan", "flaky", flaky); err != transient {
		t.Fatalf("first run error = %v, want the transient failure", err)
	}
	// Before eviction the failure is memoized: the body must not re-run.
	if _, err := st.run("plan", "flaky", flaky); err != transient || calls != 1 {
		t.Fatalf("cached error not replayed (err=%v, calls=%d)", err, calls)
	}
	if n := st.EvictErrors(); n != 1 {
		t.Fatalf("EvictErrors evicted %d slots, want 1", n)
	}
	v, err := st.run("plan", "flaky", flaky)
	if err != nil || v != "recovered" || calls != 2 {
		t.Fatalf("retry after eviction: v=%v err=%v calls=%d, want recovered/nil/2", v, err, calls)
	}
	// A second eviction finds nothing: success is never evicted, and the
	// recovered value stays memoized.
	if n := st.EvictErrors(); n != 0 {
		t.Fatalf("EvictErrors evicted %d slots after success, want 0", n)
	}
	if v, err := st.run("plan", "flaky", flaky); err != nil || v != "recovered" || calls != 2 {
		t.Fatalf("recovered value not memoized (v=%v err=%v calls=%d)", v, err, calls)
	}
}

// TestStoreEvictErrorsSparesSuccess drives real artifacts to completion,
// caches one failure beside them, and checks eviction is surgical.
func TestStoreEvictErrorsSparesSuccess(t *testing.T) {
	st := compileTestProg(t, nil)
	pa1, err := st.Pointer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.run("plan", "doomed", func() (any, map[string]int64, error) {
		return nil, nil, errors.New("doomed")
	}); err == nil {
		t.Fatal("doomed pass did not fail")
	}
	if n := st.EvictErrors(); n != 1 {
		t.Fatalf("EvictErrors evicted %d slots, want 1", n)
	}
	pa2, err := st.Pointer()
	if err != nil {
		t.Fatal(err)
	}
	if pa1 != pa2 {
		t.Error("eviction discarded a successful artifact (pointer result recomputed)")
	}
}

// TestStoreEvictErrorsConcurrent hammers a failing key with concurrent
// requests and evictions (run under -race in CI): every request must
// observe either a cached error or a successful retry, and the store
// must stay consistent throughout.
func TestStoreEvictErrorsConcurrent(t *testing.T) {
	st := compileTestProg(t, nil)
	var mu sync.Mutex
	fails := 3
	flaky := func() (any, map[string]int64, error) {
		mu.Lock()
		defer mu.Unlock()
		if fails > 0 {
			fails--
			return nil, nil, errors.New("transient failure")
		}
		return "ok", nil, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				v, err := st.run("plan", "flaky", flaky)
				if err != nil {
					st.EvictErrors()
					continue
				}
				if v != "ok" {
					t.Errorf("successful run returned %v, want ok", v)
					return
				}
			}
		}()
	}
	wg.Wait()
	if v, err := st.run("plan", "flaky", flaky); err != nil || v != "ok" {
		t.Fatalf("final state: v=%v err=%v, want ok/nil", v, err)
	}
}

// TestStoreCounterDeterminism compiles and analyzes the same program in
// two independent observed stores — one queried serially, one hammered
// concurrently — and requires the scrubbed snapshots (runs + counters,
// measurements zeroed) to match exactly.
func TestStoreCounterDeterminism(t *testing.T) {
	serial := stats.New()
	st1 := compileTestProg(t, serial)
	for _, spec := range testSpecs {
		if _, err := st1.Plan(spec); err != nil {
			t.Fatal(err)
		}
	}

	concurrent := stats.New()
	st2 := compileTestProg(t, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, spec := range testSpecs {
				st2.Plan(spec)
			}
		}()
	}
	wg.Wait()

	a := stats.Scrub(serial.Snapshot())
	b := stats.Scrub(concurrent.Snapshot())
	if !reflect.DeepEqual(a, b) {
		t.Errorf("scrubbed snapshots differ:\nserial:     %+v\nconcurrent: %+v", a, b)
	}
}
