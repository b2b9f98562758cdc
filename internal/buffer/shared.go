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
	// (GetOrLoadBytes on a cache built with NewSharedCompressed); each such
	// hit hands the caller a delta payload it must decode itself.
	// DecodeTime accumulates the wall time those callers reported spending
	// on that decode, via NoteDecode.
	CompressedHits int64
	DecodeTime     time.Duration
}

// Sub returns the counter-wise delta s − prev.
func (s SharedStats) Sub(prev SharedStats) SharedStats {
	return SharedStats{
		Hits:           s.Hits - prev.Hits,
		BytesSaved:     s.BytesSaved - prev.BytesSaved,
		Misses:         s.Misses - prev.Misses,
		DedupWaits:     s.DedupWaits - prev.DedupWaits,
		Insertions:     s.Insertions - prev.Insertions,
		Evictions:      s.Evictions - prev.Evictions,
		Rejections:     s.Rejections - prev.Rejections,
		CompressedHits: s.CompressedHits - prev.CompressedHits,
		DecodeTime:     s.DecodeTime - prev.DecodeTime,
	}
}

// Add returns the counter-wise sum of s and o.
func (s SharedStats) Add(o SharedStats) SharedStats {
	return SharedStats{
		Hits:           s.Hits + o.Hits,
		BytesSaved:     s.BytesSaved + o.BytesSaved,
		Misses:         s.Misses + o.Misses,
		DedupWaits:     s.DedupWaits + o.DedupWaits,
		Insertions:     s.Insertions + o.Insertions,
		Evictions:      s.Evictions + o.Evictions,
		Rejections:     s.Rejections + o.Rejections,
		CompressedHits: s.CompressedHits + o.CompressedHits,
		DecodeTime:     s.DecodeTime + o.DecodeTime,
	}
}

// flight is one in-progress load that late arrivals for the same key wait
// on instead of duplicating the device read. size is what the loader
// reported, set before done closes so waiters can account the read they
// saved.
type flight struct {
	done    chan struct{}
	edges   []graph.Edge
	payload []byte // compressed caches carry the delta payload instead
	size    int64
	err     error
}

// sharedEntry is one resident sub-block of a Shared cache. Decoded caches
// set edges; compressed caches set payload. size is the capacity charge
// (decoded bytes, or encoded bytes for payload entries); saved is what a
// hit adds to BytesSaved: the loader-reported size, in both tiers (see
// SharedStats).
type sharedEntry struct {
	edges   []graph.Edge
	payload []byte
	size    int64
	saved   int64
	touch   int64 // last-access clock tick, for LRU eviction
}

// Shared is the concurrency-safe read cache the job server places in front
// of a layout: concurrent engines on the same graph route their full
// sub-block loads through GetOrLoad, so a block is read from the device at
// most once per residency no matter how many jobs want it. It differs from
// Buffer on purpose:
//
//   - it is mutex-guarded and safe for any number of goroutines;
//   - loads are single-flight per key: the first caller performs the device
//     read, every concurrent caller for the same key waits for that one
//     result instead of issuing its own;
//   - eviction is least-recently-used by bytes, not active-edge priority —
//     a cross-job cache has no single frontier to rank blocks by.
//
// Cached edge slices are shared between jobs and with the in-flight loader;
// callers must treat them as immutable (the engine only ever reads decoded
// edges, so this holds today by construction).
//
// A Shared cache stores one payload representation, fixed at construction:
// decoded []graph.Edge (NewShared, accessed via GetOrLoad) or delta-coded
// bytes (NewSharedCompressed, accessed via GetOrLoadBytes). Callers must use
// the accessor matching the cache's mode; mixing them on one cache is not
// supported.
type Shared struct {
	mu         sync.Mutex
	capacity   int64
	compressed bool
	used       int64
	clock      int64
	entries    map[Key]*sharedEntry
	inflight   map[Key]*flight
	stats      SharedStats
}

// NewShared returns a shared cache holding at most capacity bytes of
// decoded sub-block payload. A zero or negative capacity caches nothing but
// still deduplicates concurrent loads of the same key. Negative capacities
// are clamped to zero at construction so insert's reject/evict arithmetic
// sees one consistent "cache nothing" regime.
func NewShared(capacity int64) *Shared {
	if capacity < 0 {
		capacity = 0
	}
	return &Shared{
		capacity: capacity,
		entries:  make(map[Key]*sharedEntry),
		inflight: make(map[Key]*flight),
	}
}

// NewSharedCompressed returns a shared cache that stores delta-coded
// payloads instead of decoded edges — the semi-external-memory compressed
// tier, holding 2–5× more graph per RAM byte at the price of a decode on
// every hit (run by the caller, via GetOrLoadBytes). Capacity accounting is
// byte-exact on the encoded size.
func NewSharedCompressed(capacity int64) *Shared {
	s := NewShared(capacity)
	s.compressed = true
	return s
}

// Compressed reports whether this cache stores delta-coded payloads
// (constructed with NewSharedCompressed) and must be accessed through
// GetOrLoadBytes.
func (s *Shared) Compressed() bool { return s.compressed }

// NoteDecode accumulates wall time a caller spent decoding a compressed-tier
// hit, surfaced as SharedStats.DecodeTime.
func (s *Shared) NoteDecode(d time.Duration) {
	s.mu.Lock()
	s.stats.DecodeTime += d
	s.mu.Unlock()
}

// Capacity returns the configured byte capacity.
func (s *Shared) Capacity() int64 { return s.capacity }

// Used returns the bytes currently cached.
func (s *Shared) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Len returns the number of resident sub-blocks.
func (s *Shared) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats returns a snapshot of the outcome counters.
func (s *Shared) Stats() SharedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// GetOrLoad returns the edges for k, loading them through load on a miss.
// load must return the decoded edges and their size in bytes, which is both
// the capacity charge and what a hit adds to BytesSaved. hit reports whether
// the call was actually served without invoking load in this goroutine —
// from residency, or by waiting on another caller's in-flight load that
// succeeded. Successful waits count as Hits/BytesSaved: they saved a device
// read just like a resident hit.
//
// A failed load is not cached and wakes all waiters with the same error;
// those waiters report hit=false (nothing was served, and hit-derived
// metrics must not count them). Transient device faults stay retriable: the
// next GetOrLoad for the key starts a fresh flight.
func (s *Shared) GetOrLoad(k Key, load func() ([]graph.Edge, int64, error)) (edges []graph.Edge, hit bool, err error) {
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		s.clock++
		e.touch = s.clock
		s.stats.Hits++
		s.stats.BytesSaved += e.size
		s.mu.Unlock()
		return e.edges, true, nil
	}
	if f, ok := s.inflight[k]; ok {
		s.stats.DedupWaits++
		s.mu.Unlock()
		<-f.done
		if f.err != nil {
			// The flight this caller piggybacked on failed: nothing was
			// served, so this is not a hit and must not inflate the
			// hit-derived metrics. The error stays retriable — the next
			// GetOrLoad starts a fresh flight.
			return nil, false, f.err
		}
		s.mu.Lock()
		s.stats.Hits++
		s.stats.BytesSaved += f.size
		s.mu.Unlock()
		return f.edges, true, nil
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[k] = f
	s.stats.Misses++
	s.mu.Unlock()

	f.edges, f.size, f.err = load()

	s.mu.Lock()
	delete(s.inflight, k)
	if f.err == nil {
		s.insert(k, &sharedEntry{edges: f.edges, size: f.size, saved: f.size})
	}
	s.mu.Unlock()
	close(f.done)
	return f.edges, false, f.err
}

// GetOrLoadBytes is GetOrLoad for compressed caches: it returns the
// delta-coded payload for k, loading it through load on a miss. load must
// return the encoded payload and the decoded sub-block size in bytes — the
// capacity charge is the encoded size (what the payload occupies in RAM),
// while a hit adds the decoded size to BytesSaved, as on a decoded cache.
// The caller decodes the payload itself, in its own worker,
// and should report the decode wall time of hits via NoteDecode. Hit,
// dedup, and failure semantics match GetOrLoad exactly; hits additionally
// count as CompressedHits.
func (s *Shared) GetOrLoadBytes(k Key, load func() (payload []byte, decodedSize int64, err error)) (payload []byte, hit bool, err error) {
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		s.clock++
		e.touch = s.clock
		s.stats.Hits++
		s.stats.CompressedHits++
		s.stats.BytesSaved += e.saved
		s.mu.Unlock()
		return e.payload, true, nil
	}
	if f, ok := s.inflight[k]; ok {
		s.stats.DedupWaits++
		s.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
		s.mu.Lock()
		s.stats.Hits++
		s.stats.CompressedHits++
		s.stats.BytesSaved += f.size
		s.mu.Unlock()
		return f.payload, true, nil
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[k] = f
	s.stats.Misses++
	s.mu.Unlock()

	f.payload, f.size, f.err = load()

	s.mu.Lock()
	delete(s.inflight, k)
	if f.err == nil {
		s.insert(k, &sharedEntry{payload: f.payload, size: int64(len(f.payload)), saved: f.size})
	}
	s.mu.Unlock()
	close(f.done)
	return f.payload, false, f.err
}

// Peek returns the cached edges for k without touching any counter or the
// LRU clock. On compressed caches every entry is a payload, so Peek always
// misses there.
//
// Aliasing contract: Peek returns the cached slice itself, with no
// defensive copy — the same slice GetOrLoad handed to every caller of the
// key. Eviction only removes the cache's reference; a slice a caller
// retained stays valid (the garbage collector keeps it alive) and is never
// reused or overwritten by the cache, because entries are immutable from
// insertion to eviction and a re-load after eviction allocates a fresh
// slice. Callers must uphold their half: treat the slice as read-only.
func (s *Shared) Peek(k Key) ([]graph.Edge, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok || e.payload != nil {
		return nil, false
	}
	return e.edges, true
}

// insert caches e under k, evicting least-recently-used residents until it
// fits. An existing entry for k (possible only if the cache's two accessors
// are mixed, which is unsupported but must not corrupt accounting) is
// replaced. Callers hold s.mu.
func (s *Shared) insert(k Key, e *sharedEntry) {
	if old, ok := s.entries[k]; ok {
		s.used -= old.size
		delete(s.entries, k)
	}
	if e.size > s.capacity || e.size < 0 {
		s.stats.Rejections++
		return
	}
	for s.used+e.size > s.capacity {
		var victim Key
		var oldest *sharedEntry
		for kk, ee := range s.entries {
			if oldest == nil || ee.touch < oldest.touch {
				oldest, victim = ee, kk
			}
		}
		if oldest == nil {
			s.stats.Rejections++
			return
		}
		s.used -= oldest.size
		delete(s.entries, victim)
		s.stats.Evictions++
	}
	s.clock++
	e.touch = s.clock
	s.entries[k] = e
	s.used += e.size
	s.stats.Insertions++
}
