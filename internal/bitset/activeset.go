// Package bitset provides the active-vertex set used throughout the GraphSD
// engine to track which vertices are active in an iteration: a dense,
// fixed-capacity bitset that keeps its own population count.
//
// The representation is chosen for the access patterns of out-of-core
// graph processing: O(1) activation, cheap population counts (needed every
// iteration by the state-aware I/O scheduler), and fast in-order iteration
// (needed by the selective update model to walk active vertices interval by
// interval).
package bitset

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// ActiveSet tracks the set of active vertices in one iteration of a graph
// algorithm. Besides the bit words it maintains the population count
// incrementally, because the state-aware I/O scheduler queries |A| every
// iteration and per-interval counts for every sub-block decision.
//
// ActiveSet is not safe for concurrent mutation; the engine activates
// vertices from a single goroutine. Concurrent readers are safe once all
// writers have finished.
type ActiveSet struct {
	words []uint64
	n     int // capacity in vertices
	count int
}

// NewActiveSet returns an empty active set over n vertices. It panics if n
// is negative.
func NewActiveSet(n int) *ActiveSet {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", n))
	}
	return &ActiveSet{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the total number of vertices the set ranges over.
func (s *ActiveSet) Len() int { return s.n }

// Count returns the number of active vertices.
func (s *ActiveSet) Count() int { return s.count }

// Empty reports whether no vertex is active.
func (s *ActiveSet) Empty() bool { return s.count == 0 }

// Activate marks vertex v active. It reports whether v was newly activated.
// It panics if v is out of range.
func (s *ActiveSet) Activate(v int) bool {
	s.check(v)
	w, m := uint(v)/wordBits, uint64(1)<<(uint(v)%wordBits)
	old := s.words[w]
	if old&m != 0 {
		return false
	}
	s.words[w] = old | m
	s.count++
	return true
}

// AddCount adjusts the cached population count by delta: the number of bits
// a caller newly set through Words. The engine's scatter and apply loops set
// bits in the raw words and fold their totals back in one call.
func (s *ActiveSet) AddCount(delta int) { s.count += delta }

// Deactivate clears vertex v. It reports whether v was previously active.
// It panics if v is out of range.
func (s *ActiveSet) Deactivate(v int) bool {
	s.check(v)
	w, m := uint(v)/wordBits, uint64(1)<<(uint(v)%wordBits)
	old := s.words[w]
	if old&m == 0 {
		return false
	}
	s.words[w] = old &^ m
	s.count--
	return true
}

// Contains reports whether vertex v is active. It panics if v is out of
// range.
func (s *ActiveSet) Contains(v int) bool {
	s.check(v)
	return s.words[uint(v)/wordBits]&(1<<(uint(v)%wordBits)) != 0
}

// check panics with an indexError when v is out of range. The message is
// formatted only if the panic is printed: a call to fmt here would cost the
// one-word accessors above their place in the inliner's budget.
func (s *ActiveSet) check(v int) {
	if uint(v) >= uint(s.n) {
		panic(indexError{v, s.n})
	}
}

type indexError struct{ i, n int }

func (e indexError) Error() string {
	return fmt.Sprintf("bitset: index %d out of range [0,%d)", e.i, e.n)
}

// CountRange returns the number of active vertices in the half-open range
// [lo, hi), clamped to the capacity.
func (s *ActiveSet) CountRange(lo, hi int) int {
	lo, hi = max(lo, 0), min(hi, s.n)
	if lo >= hi {
		return 0
	}
	loW, hiW := lo/wordBits, (hi-1)/wordBits
	last := uint((hi-1)%wordBits) + 1
	if loW == hiW {
		return bits.OnesCount64(s.words[loW] & rangeMask(uint(lo%wordBits), last))
	}
	c := bits.OnesCount64(s.words[loW] & rangeMask(uint(lo%wordBits), wordBits))
	for w := loW + 1; w < hiW; w++ {
		c += bits.OnesCount64(s.words[w])
	}
	return c + bits.OnesCount64(s.words[hiW]&rangeMask(0, last))
}

// ClearRange deactivates every vertex in [lo, hi), clamped to the capacity
// like CountRange.
func (s *ActiveSet) ClearRange(lo, hi int) {
	lo, hi = max(lo, 0), min(hi, s.n)
	if lo >= hi {
		return
	}
	loW, hiW := lo/wordBits, (hi-1)/wordBits
	last := uint((hi-1)%wordBits) + 1
	if loW == hiW {
		s.count -= s.clearMask(loW, rangeMask(uint(lo%wordBits), last))
		return
	}
	c := s.clearMask(loW, rangeMask(uint(lo%wordBits), wordBits))
	for w := loW + 1; w < hiW; w++ {
		c += bits.OnesCount64(s.words[w])
		s.words[w] = 0
	}
	s.count -= c + s.clearMask(hiW, rangeMask(0, last))
}

// clearMask clears the bits of mask in word w and returns how many were set.
func (s *ActiveSet) clearMask(w int, mask uint64) int {
	c := bits.OnesCount64(s.words[w] & mask)
	s.words[w] &^= mask
	return c
}

// FillRange activates every vertex in [lo, hi), clamped to the capacity like
// CountRange, and counts only the vertices it newly activates.
func (s *ActiveSet) FillRange(lo, hi int) {
	lo, hi = max(lo, 0), min(hi, s.n)
	if lo >= hi {
		return
	}
	s.count += hi - lo - s.CountRange(lo, hi)
	for w := lo / wordBits; w*wordBits < hi; w++ {
		s.words[w] |= rangeMask(uint(max(lo-w*wordBits, 0)), uint(min(hi-w*wordBits, wordBits)))
	}
}

// rangeMask returns a mask with bits [lo, hi) set, hi <= 64.
func rangeMask(lo, hi uint) uint64 {
	if hi >= wordBits {
		return ^uint64(0) << lo
	}
	return (^uint64(0) << lo) & ((1 << hi) - 1)
}

// ForEach visits every active vertex in ascending order. If fn returns
// false, iteration stops early. It is ForEachRange(0, Len()) without the
// per-word clamps, which double its cost over a sparse set.
func (s *ActiveSet) ForEach(fn func(v int) bool) {
	for w, word := range s.words {
		for ; word != 0; word &= word - 1 {
			if !fn(w*wordBits + bits.TrailingZeros64(word)) {
				return
			}
		}
	}
}

// ForEachRange visits every active vertex in [lo, hi), clamped to the
// capacity, in ascending order. If fn returns false, iteration stops early.
// It reads each word once, before visiting that word's bits.
func (s *ActiveSet) ForEachRange(lo, hi int, fn func(v int) bool) {
	lo, hi = max(lo, 0), min(hi, s.n)
	for w := lo / wordBits; w*wordBits < hi; w++ {
		word := s.words[w]
		if w == lo/wordBits {
			word &= ^uint64(0) << (uint(lo) % wordBits)
		}
		if rest := hi - w*wordBits; rest < wordBits {
			word &= rangeMask(0, uint(rest))
		}
		for ; word != 0; word &= word - 1 {
			if !fn(w*wordBits + bits.TrailingZeros64(word)) {
				return
			}
		}
	}
}

// Reset deactivates every vertex.
func (s *ActiveSet) Reset() {
	clear(s.words)
	s.count = 0
}

// ActivateAll marks every vertex active.
func (s *ActiveSet) ActivateAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	// Zero the bits beyond n in the final word.
	if rem := s.n % wordBits; rem != 0 {
		s.words[len(s.words)-1] = rangeMask(0, uint(rem))
	}
	s.count = s.n
}

// CopyFrom overwrites the receiver with src. It panics if the capacities
// differ.
func (s *ActiveSet) CopyFrom(src *ActiveSet) {
	if s.n != src.n {
		panic(fmt.Sprintf("bitset: CopyFrom capacity mismatch %d != %d", s.n, src.n))
	}
	copy(s.words, src.words)
	s.count = src.count
}

// Subtract deactivates every vertex active in other. It panics if the
// capacities differ.
func (s *ActiveSet) Subtract(other *ActiveSet) {
	if s.n != other.n {
		panic(fmt.Sprintf("bitset: Subtract capacity mismatch %d != %d", s.n, other.n))
	}
	for i, w := range other.words {
		s.words[i] &^= w
	}
	s.recount()
}

// Slice returns the active vertices as a sorted slice. Intended for tests
// and small sets; allocates.
func (s *ActiveSet) Slice() []int {
	out := make([]int, 0, s.count)
	s.ForEach(func(v int) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Words exposes the underlying 64-bit words (LSB-first within each word)
// for serialization and for loops that test or set many bits without a call
// per bit. The returned slice aliases the set. A caller that sets bits
// through it must report how many were new to AddCount.
func (s *ActiveSet) Words() []uint64 { return s.words }

// LoadWords overwrites the set from a Words snapshot of a set with the same
// capacity, recomputing the cached population count. A snapshot with a bit
// set beyond the capacity is refused: no set writes one.
func (s *ActiveSet) LoadWords(words []uint64) error {
	if len(words) != len(s.words) {
		return fmt.Errorf("bitset: LoadWords length %d, want %d", len(words), len(s.words))
	}
	if rem := s.n % wordBits; rem != 0 && words[len(words)-1]&^rangeMask(0, uint(rem)) != 0 {
		return fmt.Errorf("bitset: LoadWords sets a bit beyond capacity %d", s.n)
	}
	copy(s.words, words)
	s.recount()
	return nil
}

// recount recomputes the cached population count from the words.
func (s *ActiveSet) recount() {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	s.count = c
}
