// Package buffer implements GraphSD's sub-block buffering scheme (paper
// §4.3): sub-blocks a run will need again are cached in a bounded in-memory
// buffer. Each cached sub-block carries a priority the engine assigns — how
// much pending work it holds; when space is needed the lowest-priority
// resident is evicted, and a candidate whose priority is below every
// resident's is simply not cached. The engine has two users of it: the FCIU
// passes keep secondary sub-blocks (the strictly-lower-triangle grid cells
// the model must read twice), prioritised by active-edge count, and the
// async row step keeps the blocks of the rows its scheduler ranks highest,
// prioritised by the row's queue key.
package buffer

import (
	"fmt"

	"github.com/graphsd/graphsd/internal/graph"
)

// Key identifies a sub-block by its grid coordinates plus the content
// generation of the block at load time. Immutable layouts always use
// generation 0; mutable layouts bump a sub-block's generation on every
// mutation that touches it, so cache entries loaded before a write or a
// compaction publish can never be served afterwards — the stale entries
// simply stop being addressed and age out of the LRU.
type Key struct {
	I, J int
	Gen  int64
}

// String returns the key as "(i,j)" or "(i,j)@gen" for mutable layouts.
func (k Key) String() string {
	if k.Gen != 0 {
		return fmt.Sprintf("(%d,%d)@%d", k.I, k.J, k.Gen)
	}
	return fmt.Sprintf("(%d,%d)", k.I, k.J)
}

// Stats counts buffer outcomes for the Figure 12 experiment.
type Stats struct {
	Hits       int64
	Misses     int64
	Insertions int64
	Evictions  int64
	Rejections int64
	// BytesSaved is the device bytes hits avoided reading: the on-disk size
	// of every block served from memory, whatever form it was resident in.
	BytesSaved int64
}

// Add returns the field-wise sum of s and o — used to aggregate per-job
// buffer stats across runs for the server's /metrics endpoint.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Hits:       s.Hits + o.Hits,
		Misses:     s.Misses + o.Misses,
		Insertions: s.Insertions + o.Insertions,
		Evictions:  s.Evictions + o.Evictions,
		Rejections: s.Rejections + o.Rejections,
		BytesSaved: s.BytesSaved + o.BytesSaved,
	}
}

// Policy selects the eviction discipline.
type Policy int

const (
	// PriorityPolicy evicts the resident with the fewest active edges, the
	// paper's scheme (§4.3).
	PriorityPolicy Policy = iota
	// FIFOPolicy evicts the oldest resident regardless of priority — the
	// naive alternative the paper argues against; kept for the
	// buffer-policy ablation experiment.
	FIFOPolicy
)

type entry struct {
	// Exactly one of edges/payload is set: decoded entries hold edges,
	// compressed-tier entries hold the delta-coded payload instead.
	edges   []graph.Edge
	payload []byte
	// size is the capacity charge (decoded bytes for edge entries, encoded
	// bytes for payload entries); saved is the device volume a hit avoids
	// (the sub-block's on-disk size in either tier).
	size     int64
	saved    int64
	priority int64
	seq      int64 // insertion order, for FIFO
}

// Buffer is a bounded priority cache of decoded sub-blocks.
//
// Concurrency contract: Buffer is single-writer, zero-reader — it must only
// be accessed from one goroutine at a time, with no concurrent readers. In
// the engine that goroutine is the one running the schedule — the FCIU pass
// driver or the async row step; the I/O pipeline's fetch workers never touch
// the buffer (residency is sampled before a block stream opens, see
// core.openPass and the async row step). Code that needs a cache shared across
// goroutines — such as the job server deduplicating sub-block loads between
// concurrent engines — must use the mutex-guarded Shared type instead.
type Buffer struct {
	capacity int64
	used     int64
	policy   Policy
	seq      int64
	entries  map[Key]*entry
	stats    Stats
}

// New returns a buffer holding at most capacity bytes of sub-block payload
// under the paper's priority eviction scheme. A zero or negative capacity
// yields a buffer that caches nothing, which is how the "buffering
// disabled" ablation is expressed.
func New(capacity int64) *Buffer {
	return NewWithPolicy(capacity, PriorityPolicy)
}

// NewWithPolicy returns a buffer with an explicit eviction policy.
func NewWithPolicy(capacity int64, policy Policy) *Buffer {
	return &Buffer{capacity: capacity, policy: policy, entries: make(map[Key]*entry)}
}

// Capacity returns the configured byte capacity.
func (b *Buffer) Capacity() int64 { return b.capacity }

// Used returns the bytes currently cached.
func (b *Buffer) Used() int64 { return b.used }

// Len returns the number of cached sub-blocks.
func (b *Buffer) Len() int { return len(b.entries) }

// Stats returns the accumulated outcome counters.
func (b *Buffer) Stats() Stats { return b.stats }

// Get returns the cached edges for k, if resident as a decoded entry. A
// hit records the avoided I/O volume in the stats. Payload entries miss:
// callers on the decoded path cannot use them (use GetEntry instead).
func (b *Buffer) Get(k Key) ([]graph.Edge, bool) {
	e, ok := b.entries[k]
	if !ok || e.payload != nil {
		b.stats.Misses++
		return nil, false
	}
	b.stats.Hits++
	b.stats.BytesSaved += e.saved
	return e.edges, true
}

// GetEntry returns whichever form sub-block k is resident in — decoded
// edges or a delta-coded payload (exactly one is non-nil on a hit). Hit and
// saved-bytes accounting matches Get.
func (b *Buffer) GetEntry(k Key) (edges []graph.Edge, payload []byte, ok bool) {
	e, found := b.entries[k]
	if !found {
		b.stats.Misses++
		return nil, nil, false
	}
	b.stats.Hits++
	b.stats.BytesSaved += e.saved
	return e.edges, e.payload, true
}

// Peek returns the cached edges for k without touching the hit/miss
// counters. Used by the engine to recompute priorities after an iteration.
// Payload entries return (nil, false) like Get; use PeekEntry to see both
// forms.
func (b *Buffer) Peek(k Key) ([]graph.Edge, bool) {
	e, ok := b.entries[k]
	if !ok || e.payload != nil {
		return nil, false
	}
	return e.edges, true
}

// PeekEntry returns sub-block k in whichever form it is resident, without
// touching the hit/miss counters.
func (b *Buffer) PeekEntry(k Key) (edges []graph.Edge, payload []byte, ok bool) {
	e, found := b.entries[k]
	if !found {
		return nil, nil, false
	}
	return e.edges, e.payload, true
}

// Keys returns the keys of all resident sub-blocks in unspecified order.
func (b *Buffer) Keys() []Key {
	out := make([]Key, 0, len(b.entries))
	for k := range b.entries {
		out = append(out, k)
	}
	return out
}

// Contains reports residency without touching the hit/miss counters.
func (b *Buffer) Contains(k Key) bool {
	_, ok := b.entries[k]
	return ok
}

// Put offers sub-block k to the buffer as decoded edges: size is the capacity
// charge (the decoded bytes the edges occupy), saved the on-disk bytes a
// future hit avoids reading — the two differ on compressed layouts. If k is
// already resident only its priority is refreshed. To make room, resident
// sub-blocks with priority strictly below the candidate's are evicted
// lowest-first; if that cannot free enough space the candidate is rejected.
// Returns whether the sub-block is resident afterwards.
func (b *Buffer) Put(k Key, edges []graph.Edge, size, saved int64, priority int64) bool {
	return b.put(k, &entry{edges: edges, size: size, saved: saved, priority: priority})
}

// PutBytes offers sub-block k to the buffer as a delta-coded payload — the
// semi-external-memory compressed tier. Capacity is charged by the encoded
// size (len(payload)); saved is, as for Put, the on-disk bytes a future hit
// avoids reading. Admission and eviction follow Put exactly.
func (b *Buffer) PutBytes(k Key, payload []byte, saved int64, priority int64) bool {
	return b.put(k, &entry{payload: payload, size: int64(len(payload)), saved: saved, priority: priority})
}

func (b *Buffer) put(k Key, cand *entry) bool {
	if e, ok := b.entries[k]; ok {
		e.priority = cand.priority
		return true
	}
	if cand.size > b.capacity || cand.size < 0 {
		b.stats.Rejections++
		return false
	}
	for b.used+cand.size > b.capacity {
		victim, ok := b.pickVictim(cand.priority)
		if !ok {
			b.stats.Rejections++
			return false
		}
		b.evict(victim)
	}
	b.seq++
	cand.seq = b.seq
	b.entries[k] = cand
	b.used += cand.size
	b.stats.Insertions++
	return true
}

// pickVictim selects an evictable resident: the lowest-priority one with
// priority strictly below the candidate's under PriorityPolicy, or the
// oldest resident under FIFOPolicy.
func (b *Buffer) pickVictim(limit int64) (Key, bool) {
	if b.policy == FIFOPolicy {
		var bestKey Key
		var best *entry
		for k, e := range b.entries {
			if best == nil || e.seq < best.seq {
				best, bestKey = e, k
			}
		}
		return bestKey, best != nil
	}
	return b.lowestPriorityBelow(limit)
}

// UpdatePriority sets the priority of k if resident, as the paper requires
// after a secondary sub-block is processed in FCIU's first iteration.
func (b *Buffer) UpdatePriority(k Key, priority int64) {
	if e, ok := b.entries[k]; ok {
		e.priority = priority
	}
}

// Remove drops k from the buffer if resident.
func (b *Buffer) Remove(k Key) {
	if e, ok := b.entries[k]; ok {
		b.used -= e.size
		delete(b.entries, k)
	}
}

// Clear empties the buffer, keeping the statistics.
func (b *Buffer) Clear() {
	b.entries = make(map[Key]*entry)
	b.used = 0
}

// lowestPriorityBelow returns the resident with the smallest priority
// strictly below limit, tie-broken by insertion order so that eviction —
// and therefore every engine run — is fully deterministic.
func (b *Buffer) lowestPriorityBelow(limit int64) (Key, bool) {
	var bestKey Key
	var best *entry
	for k, e := range b.entries {
		if e.priority >= limit {
			continue
		}
		if best == nil || e.priority < best.priority ||
			(e.priority == best.priority && e.seq < best.seq) {
			best, bestKey = e, k
		}
	}
	return bestKey, best != nil
}

func (b *Buffer) evict(k Key) {
	e := b.entries[k]
	b.used -= e.size
	delete(b.entries, k)
	b.stats.Evictions++
}
