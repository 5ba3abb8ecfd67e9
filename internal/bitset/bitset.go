// Package bitset provides the bit-vector set shared by the pointer
// solver's points-to and delta sets and the VFG's resolution frontiers.
//
// A Set is a growable dense bit vector: one word per 64 ids, sized to the
// highest id ever added (not to the universe), so sets over a large but
// sparsely-touched id space stay small. All bulk operations — union,
// union-with-difference, equality — run word-at-a-time, and Count uses
// popcount, which is what makes difference propagation in the Andersen
// solver cheap: propagating an already-seen fact across a warm copy edge
// costs a few word compares instead of a per-element map probe.
package bitset

import "math/bits"

// Set is a growable bit vector over small non-negative integer ids.
// The zero value is an empty set ready for use. Methods that can grow the
// underlying storage take pointer receivers; read-only methods work on
// nil receivers (as the empty set) so callers can keep sparse []*Set
// tables with nil holes.
type Set struct {
	words  []uint64
	sealed bool
}

// New returns an empty set with capacity preallocated for ids in [0, n).
func New(n int) *Set {
	return &Set{words: make([]uint64, 0, (n+63)/64)}
}

// Seal freezes the set: any later mutation panics. Sealing is one-way
// and exists to enforce the solved-state read-only contract — the pointer
// solver seals every points-to set at freeze() time, so a Result shared
// across concurrent readers (the usher.Session contract) cannot be
// mutated by a buggy consumer without a loud, immediate failure. Sealing
// a nil set is a no-op (nil is already immutably empty).
func (s *Set) Seal() {
	if s != nil {
		s.sealed = true
	}
}

// Sealed reports whether the set has been sealed against mutation.
func (s *Set) Sealed() bool { return s != nil && s.sealed }

// mustMutable panics if the set was sealed.
func (s *Set) mustMutable() {
	if s.sealed {
		panic("bitset: mutation of sealed set")
	}
}

// ensure grows s to hold at least w words.
func (s *Set) ensure(w int) {
	if w <= len(s.words) {
		return
	}
	if w <= cap(s.words) {
		s.words = s.words[:w]
		return
	}
	grown := make([]uint64, w, max(w, 2*cap(s.words)))
	copy(grown, s.words)
	s.words = grown
}

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool {
	if s == nil {
		return false
	}
	w := i >> 6
	return w < len(s.words) && s.words[w]&(1<<(uint(i)&63)) != 0
}

// Add inserts i, reporting whether it was newly added.
func (s *Set) Add(i int) bool {
	s.mustMutable()
	w, mask := i>>6, uint64(1)<<(uint(i)&63)
	s.ensure(w + 1)
	if s.words[w]&mask != 0 {
		return false
	}
	s.words[w] |= mask
	return true
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.mustMutable()
	if w := i >> 6; w < len(s.words) {
		s.words[w] &^= 1 << (uint(i) & 63)
	}
}

// UnionWith adds every member of t to s, reporting whether s changed.
func (s *Set) UnionWith(t *Set) bool {
	if t == nil || len(t.words) == 0 {
		return false
	}
	s.mustMutable()
	s.ensure(len(t.words))
	changed := false
	for w, tw := range t.words {
		if old := s.words[w]; old|tw != old {
			s.words[w] = old | tw
			changed = true
		}
	}
	return changed
}

// UnionDiffInto adds every member of t to s and records the members new
// to s into diff, reporting whether s changed. It is the difference-
// propagation primitive: diff accumulates exactly the facts the caller
// has not yet pushed to s.
func (s *Set) UnionDiffInto(t, diff *Set) bool {
	if t == nil || len(t.words) == 0 {
		return false
	}
	s.mustMutable()
	diff.mustMutable()
	s.ensure(len(t.words))
	changed := false
	for w, tw := range t.words {
		old := s.words[w]
		if fresh := tw &^ old; fresh != 0 {
			s.words[w] = old | tw
			diff.ensure(w + 1)
			diff.words[w] |= fresh
			changed = true
		}
	}
	return changed
}

// CopyFrom makes s an exact copy of t, reusing s's storage.
func (s *Set) CopyFrom(t *Set) {
	s.mustMutable()
	if t == nil {
		s.Clear()
		return
	}
	s.ensure(len(t.words))
	copy(s.words, t.words)
	for w := len(t.words); w < len(s.words); w++ {
		s.words[w] = 0
	}
}

// Clear empties the set, keeping its storage for reuse.
func (s *Set) Clear() {
	s.mustMutable()
	for w := range s.words {
		s.words[w] = 0
	}
	s.words = s.words[:0]
}

// Empty reports whether the set has no members.
func (s *Set) Empty() bool {
	if s == nil {
		return true
	}
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of members (popcount over the words).
func (s *Set) Count() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Equal reports whether s and t have the same members.
func (s *Set) Equal(t *Set) bool {
	a, b := s.wordsOf(), t.wordsOf()
	if len(a) > len(b) {
		a, b = b, a
	}
	for w := range a {
		if a[w] != b[w] {
			return false
		}
	}
	for _, bw := range b[len(a):] {
		if bw != 0 {
			return false
		}
	}
	return true
}

func (s *Set) wordsOf() []uint64 {
	if s == nil {
		return nil
	}
	return s.words
}

// ForEach calls f for every member in ascending order.
func (s *Set) ForEach(f func(i int)) {
	if s == nil {
		return
	}
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			f(wi<<6 | b)
		}
	}
}

// AppendTo appends the members in ascending order to buf and returns it.
func (s *Set) AppendTo(buf []int) []int {
	s.ForEach(func(i int) { buf = append(buf, i) })
	return buf
}
