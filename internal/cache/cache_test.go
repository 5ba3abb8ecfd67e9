package cache

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// resident lists the resident keys, most recently used first, without
// touching recency or the hit/miss counters.
func resident[V any](c *LRU[V]) []string {
	var keys []string
	c.Range(func(k string, _ V) { keys = append(keys, k) })
	return keys
}

func TestLRUBudgetEviction(t *testing.T) {
	c := New[int](100)
	for i := 0; i < 4; i++ {
		if !c.Put(fmt.Sprintf("k%d", i), i, 30) {
			t.Fatalf("k%d rejected", i)
		}
	}
	// 4×30 = 120 > 100: the least-recently-used entry (k0) must be gone.
	if st := c.Stats(); st.Bytes != 90 || st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("bytes=%d entries=%d evictions=%d, want 90/3/1", st.Bytes, st.Entries, st.Evictions)
	}
	if keys := resident(c); slices.Contains(keys, "k0") {
		t.Errorf("resident %v: k0 survived past the budget", keys)
	}
	// Touching k1 protects it from the next eviction round.
	if _, ok := c.Get("k1"); !ok {
		t.Fatal("k1 missing")
	}
	c.Put("k4", 4, 30)
	keys := resident(c)
	if slices.Contains(keys, "k2") {
		t.Errorf("resident %v: k2 survived; LRU order ignored the Get(k1) touch", keys)
	}
	if !slices.Contains(keys, "k1") {
		t.Errorf("resident %v: recently used k1 was evicted", keys)
	}
}

func TestLRUReplaceAdjustsSize(t *testing.T) {
	c := New[string](100)
	c.Put("a", "v1", 40)
	c.Put("a", "v2", 70)
	if st := c.Stats(); st.Bytes != 70 || st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("bytes=%d entries=%d evictions=%d after replace, want 70/1/0", st.Bytes, st.Entries, st.Evictions)
	}
	if v, _ := c.Get("a"); v != "v2" {
		t.Fatalf("value = %q, want v2", v)
	}
}

func TestLRUOversizeRejected(t *testing.T) {
	c := New[int](50)
	c.Put("small", 1, 20)
	if c.Put("huge", 2, 51) {
		t.Fatal("entry above the whole budget was admitted")
	}
	if _, ok := c.Get("huge"); ok {
		t.Fatal("rejected entry is resident")
	}
	// A rejected replacement must also clear the stale entry it replaces.
	c.Put("small", 3, 51)
	if keys := resident(c); len(keys) != 0 {
		t.Errorf("resident %v: stale entry survived a size-rejected replacement", keys)
	}
	st := c.Stats()
	if st.Rejected != 2 || st.Bytes != 0 {
		t.Errorf("rejected = %d, bytes = %d, want 2, 0", st.Rejected, st.Bytes)
	}
}

func TestLRUZeroBudget(t *testing.T) {
	c := New[int](0)
	if c.Put("a", 1, 1) {
		t.Fatal("zero-budget cache admitted an entry")
	}
	if c.Put("b", 2, 0) {
		// A zero-sized entry technically fits a zero budget, but the
		// package contract says a zero budget disables caching
		// entirely; admitting size-0 entries would grow the map without
		// bound. This pins the documented behavior.
		t.Fatal("zero-budget cache admitted a zero-sized entry")
	}
	if got := c.Stats().Rejected; got != 2 {
		t.Fatalf("rejected = %d, want 2", got)
	}
}

func TestLRUStatsCounters(t *testing.T) {
	c := New[int](60)
	c.Put("a", 1, 30)
	c.Put("b", 2, 30)
	c.Get("a")    // hit
	c.Get("nope") // miss
	c.Put("c", 3, 30)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 1 {
		t.Errorf("hits/misses/evictions = %d/%d/%d, want 1/1/1", st.Hits, st.Misses, st.Evictions)
	}
	if st.Entries != 2 || st.Bytes != 60 || st.BudgetBytes != 60 {
		t.Errorf("entries/bytes/budget = %d/%d/%d, want 2/60/60", st.Entries, st.Bytes, st.BudgetBytes)
	}
}

func TestLRURemove(t *testing.T) {
	c := New[int](100)
	c.Put("a", 1, 10)
	if !c.Remove("a") || c.Remove("a") {
		t.Fatal("Remove did not report presence correctly")
	}
	if st := c.Stats(); st.Evictions != 0 || st.Bytes != 0 || st.Entries != 0 {
		t.Errorf("stats after Remove: %+v", st)
	}
}

func TestLRURangeOrder(t *testing.T) {
	c := New[int](100)
	c.Put("a", 1, 10)
	c.Put("b", 2, 10)
	c.Put("c", 3, 10)
	c.Get("a") // a becomes most recently used
	if order, want := resident(c), []string{"a", "c", "b"}; !slices.Equal(order, want) {
		t.Fatalf("Range order = %v, want %v", order, want)
	}
	// Range must not perturb recency or the hit/miss counters.
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("Range touched counters: %+v", st)
	}
}

// TestLRUConcurrent hammers the cache from many goroutines (run under
// -race in CI) and then checks the accounting invariants hold.
func TestLRUConcurrent(t *testing.T) {
	c := New[int](1000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%40)
				if i%3 == 0 {
					c.Put(k, i, int64(10+i%50))
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > st.BudgetBytes {
		t.Errorf("resident bytes %d exceed budget %d", st.Bytes, st.BudgetBytes)
	}
	if n := len(resident(c)); st.Entries != n {
		t.Errorf("stats entries %d != %d resident", st.Entries, n)
	}
}
