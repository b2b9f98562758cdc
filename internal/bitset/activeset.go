package bitset

// ActiveSet tracks the set of active vertices in one iteration of a graph
// algorithm. It is a thin wrapper over a dense Bitset that additionally
// maintains the population count incrementally, because the state-aware I/O
// scheduler queries |A| every iteration and per-interval counts for every
// sub-block decision.
//
// ActiveSet is not safe for concurrent mutation; the engine activates
// vertices from a single goroutine per interval.
type ActiveSet struct {
	bits  *Bitset
	count int
}

// NewActiveSet returns an empty active set over n vertices.
func NewActiveSet(n int) *ActiveSet {
	return &ActiveSet{bits: New(n)}
}

// Len returns the total number of vertices the set ranges over.
func (s *ActiveSet) Len() int { return s.bits.Len() }

// Count returns the number of active vertices.
func (s *ActiveSet) Count() int { return s.count }

// Empty reports whether no vertex is active.
func (s *ActiveSet) Empty() bool { return s.count == 0 }

// Activate marks vertex v active. It reports whether v was newly activated.
func (s *ActiveSet) Activate(v int) bool {
	if s.bits.TestAndSet(v) {
		return false
	}
	s.count++
	return true
}

// AddCount adjusts the cached population count by delta: the number of bits
// a caller newly set through Words. The engine's scatter and apply loops set
// bits in the raw words — several workers at once, each within its own
// 64-aligned range — and fold their totals back in one call.
func (s *ActiveSet) AddCount(delta int) { s.count += delta }

// Deactivate clears vertex v. It reports whether v was previously active.
func (s *ActiveSet) Deactivate(v int) bool {
	if !s.bits.Test(v) {
		return false
	}
	s.bits.Clear(v)
	s.count--
	return true
}

// Contains reports whether vertex v is active.
func (s *ActiveSet) Contains(v int) bool { return s.bits.Test(v) }

// CountRange returns the number of active vertices in [lo, hi).
func (s *ActiveSet) CountRange(lo, hi int) int { return s.bits.CountRange(lo, hi) }

// ForEach visits every active vertex in ascending order.
func (s *ActiveSet) ForEach(fn func(v int) bool) { s.bits.ForEach(fn) }

// ForEachRange visits every active vertex in [lo, hi) in ascending order.
func (s *ActiveSet) ForEachRange(lo, hi int, fn func(v int) bool) {
	s.bits.ForEachRange(lo, hi, fn)
}

// ClearRange deactivates every vertex in [lo, hi).
func (s *ActiveSet) ClearRange(lo, hi int) { s.count -= s.bits.ClearRange(lo, hi) }

// Reset deactivates every vertex.
func (s *ActiveSet) Reset() {
	s.bits.Reset()
	s.count = 0
}

// ActivateAll marks every vertex active.
func (s *ActiveSet) ActivateAll() {
	s.bits.Fill()
	s.count = s.bits.Len()
}

// CopyFrom overwrites the receiver with src. Capacities must match.
func (s *ActiveSet) CopyFrom(src *ActiveSet) {
	s.bits.CopyFrom(src.bits)
	s.count = src.count
}

// Subtract deactivates every vertex active in other. Capacities must match.
func (s *ActiveSet) Subtract(other *ActiveSet) {
	s.bits.AndNot(other.bits)
	s.count = s.bits.Count()
}

// Slice returns the active vertices as a sorted slice. Intended for tests
// and small sets; allocates.
func (s *ActiveSet) Slice() []int {
	out := make([]int, 0, s.count)
	s.bits.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Bits exposes the underlying dense bitset for read-only use.
func (s *ActiveSet) Bits() *Bitset { return s.bits }

// Words exposes the underlying bit words (see Bitset.Words). A caller that
// sets bits through them must report how many were new to AddCount.
func (s *ActiveSet) Words() []uint64 { return s.bits.Words() }

// LoadWords overwrites the set from a Words snapshot, recomputing the
// cached population count.
func (s *ActiveSet) LoadWords(words []uint64) error {
	if err := s.bits.SetWords(words); err != nil {
		return err
	}
	s.count = s.bits.Count()
	return nil
}
