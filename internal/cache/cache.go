// Package cache provides a byte-budgeted, concurrency-safe LRU map for
// long-lived analysis artifacts.
//
// The usherd daemon keys compiled programs and their pipeline stores by
// a content hash of the submitted source; without a bound, sustained
// traffic over distinct sources grows resident memory without limit.
// The LRU bounds it two ways:
//
//   - every entry carries a caller-supplied size (an estimate is fine —
//     usherd uses the pipeline's observed allocation volume, an upper
//     bound on what the artifacts retain), and
//   - inserting past the byte budget evicts least-recently-used entries
//     until the new entry fits. An entry larger than the whole budget is
//     not admitted at all (the request is still served; its artifacts
//     are just not retained).
//
// Hit, miss, eviction and rejection counts are exported for the
// daemon's /stats endpoint. The zero budget means "no caching": every
// Put is rejected, which degenerates the daemon to one-shot behavior.
package cache

import (
	"container/list"
	"sync"
)

// LRU is the byte-budgeted map. The zero value is not usable; call New.
type LRU[V any] struct {
	mu     sync.Mutex
	budget int64
	ll     *list.List // front = most recently used
	items  map[string]*list.Element
	bytes  int64

	hits, misses, evictions, rejected int64
}

type lruItem[V any] struct {
	key   string
	value V
	size  int64
}

// Stats is a point-in-time view of the cache counters.
type Stats struct {
	// Hits and Misses count Get outcomes; Evictions counts entries
	// displaced to enforce the budget (Remove is not an eviction).
	Hits, Misses, Evictions int64
	// Rejected counts Put calls refused because the entry alone exceeds
	// the whole budget.
	Rejected int64
	// Entries and Bytes are the current residency; BudgetBytes the bound.
	Entries     int
	Bytes       int64
	BudgetBytes int64
}

// New returns an LRU bounded to budget bytes of accounted entry size.
func New[V any](budget int64) *LRU[V] {
	if budget < 0 {
		budget = 0
	}
	return &LRU[V]{
		budget: budget,
		ll:     list.New(),
		items:  make(map[string]*list.Element),
	}
}

// Get returns the entry for key, marking it most recently used.
func (c *LRU[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*lruItem[V]).value, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put inserts or replaces the entry for key with the given accounted
// size, evicting least-recently-used entries until the budget holds.
// Returns false when the entry alone exceeds the budget and was not
// admitted.
func (c *LRU[V]) Put(key string, value V, size int64) bool {
	if size < 0 {
		size = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget || c.budget == 0 {
		c.rejected++
		// A stale smaller entry under the same key must not survive a
		// replacement that was rejected for size.
		if el, ok := c.items[key]; ok {
			c.evict(el)
		}
		return false
	}
	if el, ok := c.items[key]; ok {
		it := el.Value.(*lruItem[V])
		// Replacement: the budget reflects the new size alone, not the
		// sum.
		c.bytes += size - it.size
		it.value, it.size = value, size
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&lruItem[V]{key: key, value: value, size: size})
		c.items[key] = el
		c.bytes += size
	}
	for c.bytes > c.budget {
		oldest := c.ll.Back()
		if oldest == nil || oldest.Value.(*lruItem[V]).key == key {
			break
		}
		c.evict(oldest)
	}
	return true
}

// evict removes el and counts an eviction. Caller holds c.mu.
func (c *LRU[V]) evict(el *list.Element) {
	it := el.Value.(*lruItem[V])
	c.ll.Remove(el)
	delete(c.items, it.key)
	c.bytes -= it.size
	c.evictions++
}

// Remove deletes the entry for key without counting an eviction.
func (c *LRU[V]) Remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	it := el.Value.(*lruItem[V])
	c.ll.Remove(el)
	delete(c.items, it.key)
	c.bytes -= it.size
	return true
}

// Range calls f for every resident entry, most recently used first,
// without touching recency or counters. f runs under the cache lock and
// must not call back into the cache.
func (c *LRU[V]) Range(f func(key string, value V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		it := el.Value.(*lruItem[V])
		f(it.key, it.value)
	}
}

// Stats returns the current counters.
func (c *LRU[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses,
		Evictions: c.evictions, Rejected: c.rejected,
		Entries: len(c.items), Bytes: c.bytes, BudgetBytes: c.budget,
	}
}
