package buffer

import "github.com/graphsd/graphsd/internal/graph"

// Test-only views into the two doors; no caller outside this package's
// tests needs them.

// Peek is Get without touching the hit/miss counters.
func (b *Buffer) Peek(k Key) (Block, bool) {
	e, ok := b.st.entries[k]
	if !ok {
		return Block{}, false
	}
	return e.blk, true
}

// Peek returns the cached edges for k without touching any counter or the
// clock.
func (s *Shared) Peek(k Key) ([]graph.Edge, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.st.entries[k]
	if !ok {
		return nil, false
	}
	return e.blk.Edges, true
}

// Len returns the number of resident sub-blocks.
func (s *Shared) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.st.entries)
}
