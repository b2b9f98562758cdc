package buffer

import "github.com/graphsd/graphsd/internal/graph"

// Test-only views into a Shared cache; no caller outside this package's
// tests ever needed them.

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
