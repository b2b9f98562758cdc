// Package buffer implements GraphSD's sub-block buffering scheme (paper
// §4.3): sub-blocks that will be needed again are kept in a bounded
// in-memory store. Each resident carries a priority — how much it is worth
// keeping; when space is needed the lowest-priority resident is evicted, and a
// candidate whose priority is below every resident's is simply not cached.
//
// There is one store and two doors to it, which differ in who supplies the
// priority:
//
//   - Buffer, the per-run buffer, takes it from the engine: the FCIU passes
//     offer every sub-block they read, prioritised by active-edge count with
//     the secondaries (the strictly-lower-triangle grid cells the model must
//     read twice) ranked above every other cell, so the others fill only the
//     room the secondaries leave; the async row step keeps the blocks of the
//     rows its scheduler ranks highest, prioritised by the row's queue key.
//   - Shared, the cross-job cache, has no single frontier to rank blocks by,
//     so it feeds in a clock: a resident's priority is the tick of its last
//     use. A block just loaded holds the newest tick, so it is never turned
//     away, and the lowest-priority resident is the least recently used one —
//     the paper's rule with recency as the priority is LRU.
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

// Block is a resident sub-block in the form it was offered in: decoded Edges,
// or — the semi-external-memory compressed tier — the delta-coded Payload,
// which holds 2–5× more graph per RAM byte and which whoever is handed the
// block decodes, in its own goroutine. At most one of the two is set (neither:
// an empty sub-block). The store never looks inside either and never writes to
// them: a slice handed out stays valid and unchanged after its entry is
// evicted, so holders must treat it as read-only — unless the per-run door's
// caller took the evicted payload back (Put's spent) to reuse its memory,
// which it does only once none of the slice's holders is left.
type Block struct {
	Edges   []graph.Edge
	Payload []byte
}

// entry is one resident: the block, its capacity charge, what a hit on it is
// credited with saving, and its rank.
type entry struct {
	blk      Block
	size     int64
	saved    int64
	priority int64
	seq      int64 // insertion order, the tie-break among equal priorities
}

// store is the bounded priority store under both doors. It is not safe for
// concurrent use: Buffer confines it to one goroutine, Shared to its mutex.
type store struct {
	capacity int64
	used     int64
	seq      int64
	entries  map[Key]*entry

	insertions, evictions, rejections int64
}

func newStore(capacity int64) store {
	return store{capacity: capacity, entries: make(map[Key]*entry)}
}

// put offers blk under k, charged size bytes of capacity. If k is already
// resident only its priority is refreshed. To make room, residents with
// priority strictly below the candidate's are evicted lowest-first; if that
// cannot free enough space — or the block is larger than the whole store —
// the candidate is rejected. Reports whether k is resident afterwards. When
// spent is not nil the payload of every resident evicted is appended to it.
func (s *store) put(k Key, blk Block, size, saved, priority int64, spent *[][]byte) bool {
	if e, ok := s.entries[k]; ok {
		e.priority = priority
		return true
	}
	if size > s.capacity || size < 0 {
		s.rejections++
		return false
	}
	for s.used+size > s.capacity {
		victim, ok := s.lowestPriorityBelow(priority)
		if !ok {
			s.rejections++
			return false
		}
		e := s.entries[victim]
		if spent != nil && e.blk.Payload != nil {
			*spent = append(*spent, e.blk.Payload)
		}
		s.used -= e.size
		delete(s.entries, victim)
		s.evictions++
	}
	s.seq++
	s.entries[k] = &entry{blk: blk, size: size, saved: saved, priority: priority, seq: s.seq}
	s.used += size
	s.insertions++
	return true
}

// lowestPriorityBelow returns the resident with the smallest priority
// strictly below limit, tie-broken by insertion order so that eviction —
// and therefore every engine run — is fully deterministic.
func (s *store) lowestPriorityBelow(limit int64) (Key, bool) {
	var bestKey Key
	var best *entry
	for k, e := range s.entries {
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

// Buffer is the per-run door: the bare store plus hit/miss accounting.
//
// Concurrency contract: Buffer is single-writer, zero-reader — it must only
// be accessed from one goroutine at a time, with no concurrent readers. In
// the engine that goroutine is the one running the schedule — the FCIU pass
// driver or the async row step; the I/O pipeline's fetch workers never touch
// the buffer (residency is sampled before a block stream opens, see
// core.openFetch). Code that needs a cache shared across goroutines — such as
// the job server deduplicating sub-block loads between concurrent engines —
// must use the mutex-guarded Shared type instead.
type Buffer struct {
	st                       store
	hits, misses, bytesSaved int64
}

// New returns a buffer holding at most capacity bytes of sub-blocks. A zero
// or negative capacity yields a buffer that caches nothing, which is how the
// "buffering disabled" ablation is expressed.
func New(capacity int64) *Buffer { return &Buffer{st: newStore(capacity)} }

// Capacity returns the configured byte capacity.
func (b *Buffer) Capacity() int64 { return b.st.capacity }

// Len returns the number of cached sub-blocks.
func (b *Buffer) Len() int { return len(b.st.entries) }

// Used returns the capacity its residents are charged.
func (b *Buffer) Used() int64 { return b.st.used }

// Stats returns the accumulated outcome counters.
func (b *Buffer) Stats() Stats {
	return Stats{
		Hits: b.hits, Misses: b.misses, BytesSaved: b.bytesSaved,
		Insertions: b.st.insertions, Evictions: b.st.evictions, Rejections: b.st.rejections,
	}
}

// Get returns sub-block k in whichever form it is resident. A hit records the
// device volume it avoided in the stats.
func (b *Buffer) Get(k Key) (Block, bool) {
	e, ok := b.st.entries[k]
	if !ok {
		b.misses++
		return Block{}, false
	}
	b.hits++
	b.bytesSaved += e.saved
	return e.blk, true
}

// Peek is Get without touching the hit/miss counters.
func (b *Buffer) Peek(k Key) (Block, bool) {
	e, ok := b.st.entries[k]
	if !ok {
		return Block{}, false
	}
	return e.blk, true
}

// Contains reports residency without touching the hit/miss counters.
func (b *Buffer) Contains(k Key) bool {
	_, ok := b.st.entries[k]
	return ok
}

// Put offers sub-block k to the buffer at the given priority, under the
// store's admission rule (see store.put). Decoded edges are charged decoded —
// the bytes they occupy — and a payload its own length; saved is the on-disk
// bytes a future hit avoids reading, which differs from both on compressed
// layouts. Returns whether the sub-block is resident afterwards. The payload of
// every resident evicted to make room is appended to *spent (spent nil:
// dropped): the buffer no longer refers to it, and it is the caller's to reuse
// once nothing it handed it to still reads it.
func (b *Buffer) Put(k Key, blk Block, decoded, saved, priority int64, spent *[][]byte) bool {
	size := decoded
	if blk.Payload != nil {
		size = int64(len(blk.Payload))
	}
	return b.st.put(k, blk, size, saved, priority, spent)
}

// Reprioritize sets every resident's priority to rank of it, as the paper
// requires once FCIU's first iteration has processed the secondary sub-blocks.
// rank sees each resident once, in unspecified order.
func (b *Buffer) Reprioritize(rank func(Key, Block) int64) {
	for k, e := range b.st.entries {
		e.priority = rank(k, e.blk)
	}
}
