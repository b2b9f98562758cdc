package buffer

import (
	"sync"
	"time"

	"github.com/graphsd/graphsd/internal/graph"
)

// SharedStats counts the outcomes of a Shared cache. All counters are
// monotonic, so deltas between snapshots attribute activity to a window.
type SharedStats struct {
	// Hits served a sub-block with zero device I/O in the calling
	// goroutine — from residency or by a successful dedup wait; BytesSaved
	// sums, over those hits, the size the block's loader reported. The
	// engine's loaders report the decoded sub-block size (what the entry
	// occupies decoded, the capacity unit), so on a delta layout this is the
	// volume of edges served from memory, 2–5× the device bytes the hits
	// avoided — unlike Stats.BytesSaved of the per-run Buffer, which is
	// on-disk bytes.
	Hits       int64
	BytesSaved int64
	// Misses triggered a device load (the single flight for the key).
	Misses int64
	// DedupWaits counts callers that found a load for their key already in
	// flight and waited for it instead of issuing a duplicate device read.
	// A wait whose flight succeeded also counts as a Hit; a wait whose
	// flight failed counts as neither hit nor miss.
	DedupWaits int64
	// Insertions/Evictions/Rejections mirror the Buffer counters: blocks
	// cached after a load, blocks dropped to make room (least recently used
	// first), and loaded blocks too large to cache.
	Insertions int64
	Evictions  int64
	Rejections int64
	// CompressedHits is the subset of Hits served from the compressed tier
	// (a cache built with NewSharedCompressed); each such
	// hit hands the caller a delta payload it must decode itself.
	// DecodeTime accumulates the wall time those callers reported spending
	// on that decode, via NoteDecode.
	CompressedHits int64
	DecodeTime     time.Duration
}

// flight is one in-progress load that late arrivals for the same key wait
// on instead of duplicating the device read. size is what the loader
// reported, set before done closes so waiters can account the read they
// saved.
type flight struct {
	done chan struct{}
	blk  Block
	size int64
	err  error
}

// Shared is the concurrency-safe door: the read cache the job server places
// in front of a layout. Concurrent engines on the same graph route their full
// sub-block loads through it, so a block is read from the device at most once
// per residency no matter how many jobs want it. It is Buffer's store behind
// three things:
//
//   - a mutex, making it safe for any number of goroutines;
//   - a single-flight map: the first caller for a key performs the device
//     read, every concurrent caller for the same key waits for that one
//     result instead of issuing its own;
//   - a clock it feeds in as the priority, ticked on every hit and every
//     load, which makes the store's eviction rule least-recently-used (see
//     the package comment).
//
// A Shared cache stores one Block form, fixed at construction: decoded edges
// (NewShared) or delta-coded payloads (NewSharedCompressed). Loaders must
// return the form matching the cache's mode; mixing them on one cache is not
// supported.
type Shared struct {
	mu         sync.Mutex
	st         store
	compressed bool
	clock      int64
	inflight   map[Key]*flight
	stats      SharedStats // the store keeps Insertions/Evictions/Rejections
}

// NewShared returns a shared cache holding at most capacity bytes of
// decoded sub-blocks. A zero or negative capacity (clamped to zero) caches
// nothing but still deduplicates concurrent loads of the same key.
func NewShared(capacity int64) *Shared {
	return &Shared{st: newStore(max(capacity, 0)), inflight: make(map[Key]*flight)}
}

// NewSharedCompressed returns a shared cache that stores delta-coded
// payloads instead of decoded edges — the semi-external-memory compressed
// tier, at the price of a decode on every hit (run by the caller). Capacity
// accounting is byte-exact on the encoded size.
func NewSharedCompressed(capacity int64) *Shared {
	s := NewShared(capacity)
	s.compressed = true
	return s
}

// Compressed reports whether this cache stores delta-coded payloads
// (constructed with NewSharedCompressed).
func (s *Shared) Compressed() bool { return s.compressed }

// NoteDecode accumulates wall time a caller spent decoding a compressed-tier
// hit, surfaced as SharedStats.DecodeTime.
func (s *Shared) NoteDecode(d time.Duration) {
	s.mu.Lock()
	s.stats.DecodeTime += d
	s.mu.Unlock()
}

// Capacity returns the configured byte capacity.
func (s *Shared) Capacity() int64 { return s.st.capacity }

// Used returns the bytes currently cached.
func (s *Shared) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.used
}

// Stats returns a snapshot of the outcome counters, all taken at one instant.
func (s *Shared) Stats() SharedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Insertions, st.Evictions, st.Rejections = s.st.insertions, s.st.evictions, s.st.rejections
	return st
}

// GetOrLoadBlock returns sub-block k, loading it through load on a miss. load
// must return the block in the cache's form and the decoded sub-block size in
// bytes, which is what a hit adds to BytesSaved; the capacity charge is that
// size on a decoded cache and the payload's own length on a compressed one.
// A payload is decoded by the caller, in its own worker, which should report
// the decode wall time of hits via NoteDecode. hit reports whether the call
// was actually served without invoking load in this goroutine — from
// residency, or by waiting on another caller's in-flight load that succeeded.
// Successful waits count as Hits/BytesSaved: they saved a device read just
// like a resident hit.
//
// A failed load is not cached and wakes all waiters with the same error;
// those waiters report hit=false (nothing was served, and hit-derived
// metrics must not count them). Transient device faults stay retriable: the
// next call for the key starts a fresh flight.
//
// Aliasing contract: the slice returned is the cached slice itself, with no
// defensive copy — the same one handed to every caller of the key and to the
// in-flight loader. Eviction only removes the cache's reference; a slice a
// caller retained stays valid (the garbage collector keeps it alive) and is
// never reused or overwritten by the cache, because entries are immutable
// from insertion to eviction and a re-load after eviction allocates a fresh
// slice. Callers must uphold their half: treat the slice as read-only (the
// engine only ever reads decoded edges, so this holds today by construction).
func (s *Shared) GetOrLoadBlock(k Key, load func() (Block, int64, error)) (blk Block, hit bool, err error) {
	s.mu.Lock()
	if e, ok := s.st.entries[k]; ok {
		s.clock++
		e.priority = s.clock
		s.hit(e.saved)
		s.mu.Unlock()
		return e.blk, true, nil
	}
	if f, ok := s.inflight[k]; ok {
		s.stats.DedupWaits++
		s.mu.Unlock()
		<-f.done
		if f.err != nil {
			// The flight this caller piggybacked on failed: nothing was
			// served, so this is not a hit and must not inflate the
			// hit-derived metrics. The error stays retriable — the next
			// call starts a fresh flight.
			return Block{}, false, f.err
		}
		s.mu.Lock()
		s.hit(f.size)
		s.mu.Unlock()
		return f.blk, true, nil
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[k] = f
	s.stats.Misses++
	s.mu.Unlock()

	f.blk, f.size, f.err = load()

	s.mu.Lock()
	delete(s.inflight, k)
	if f.err == nil {
		charge := f.size
		if s.compressed {
			charge = int64(len(f.blk.Payload))
		}
		s.clock++
		s.st.put(k, f.blk, charge, f.size, s.clock, nil) // its entries are every job's: none is handed back
	}
	s.mu.Unlock()
	close(f.done)
	return f.blk, false, f.err
}

// GetOrLoad is GetOrLoadBlock for callers that only speak decoded edges, on a
// cache built with NewShared.
func (s *Shared) GetOrLoad(k Key, load func() ([]graph.Edge, int64, error)) (edges []graph.Edge, hit bool, err error) {
	blk, hit, err := s.GetOrLoadBlock(k, func() (Block, int64, error) {
		edges, size, err := load()
		return Block{Edges: edges}, size, err
	})
	return blk.Edges, hit, err
}

// hit counts one served request that saved a read of size bytes. Callers
// hold s.mu.
func (s *Shared) hit(size int64) {
	s.stats.Hits++
	s.stats.BytesSaved += size
	if s.compressed {
		s.stats.CompressedHits++
	}
}
