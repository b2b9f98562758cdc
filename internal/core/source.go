package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/pipeline"
	"github.com/graphsd/graphsd/internal/storage"
)

// blockSource is the one route from grid coordinates to scatter-ready edges.
// Every driver — the FCIU/full passes, SCIU, the async row step — asks it for
// a whole sub-block (full) or for a frontier's edge runs (selective) and gets
// back edges it may read but not mutate; which cache tier answered, in which
// representation, through which pooled buffer, is the source's business, and
// so are the counters that record it. A full-model pass over a sparse
// frontier asks for its blocks undecoded (viewed) and decodes, per scatter,
// only the runs it needs. Safe for concurrent use: prefetch workers call it
// while the consumer does.
type blockSource struct {
	layout *partition.Layout
	shared *buffer.Shared // cross-job cache in front of full loads; may be nil

	// ioBufs pools the raw byte buffers device reads go through. Decoded edge
	// slices are not pooled: consumers may retain them (priority buffer, FCIU
	// diagonal, shared cache), and since every decoder allocates exactly once,
	// exactly its size, recycling them measured no gain (DESIGN.md §17).
	ioBufs sync.Pool

	// views pools the payload and directory memory of run-view blocks (see
	// viewed). Unlike decoded edges these are never retained: the pass that
	// took a view block releases it after its last scatter from it.
	views sync.Pool
	// poison makes release scribble over a view block's payload before
	// pooling it, so that a test catches a scatter from a released block.
	poison bool

	// handles holds what the run keeps of each sub-block it has touched, keyed
	// by grid cell and file generation — the resolved file name, unbuilt. The
	// first maxOpen of them keep their descriptor open between loads.
	hMu     sync.Mutex
	handles map[buffer.Key]*blockHandle
	maxOpen int

	// sharedHits/sharedMisses count full loads served by / missed in the
	// shared cache. The comp* counters are the compressed tiers' accounting
	// (see SEMStats): hits decoded, payload and decoded bytes admitted, and
	// the wall clock spent decoding.
	sharedHits, sharedMisses              atomic.Int64
	compHits, compBytes, compDecodedBytes atomic.Int64
	decodeNanos                           atomic.Int64
	// viewBlocks counts the blocks delivered as run views.
	viewBlocks atomic.Int64
}

func newBlockSource(layout *partition.Layout, shared *buffer.Shared) *blockSource {
	return &blockSource{layout: layout, shared: shared, handles: make(map[buffer.Key]*blockHandle), maxOpen: maxOpenBlocks}
}

// maxOpenBlocks bounds the descriptors one run keeps open. Handles past the
// bound open and close their file around every load, as every load once did.
const maxOpenBlocks = 256

// blockHandle is what a run keeps of one sub-block between loads, immutable
// while the block's file is: the file's reader (name resolved once; descriptor
// kept, for the first maxOpenBlocks handles), the vertex index of the selective
// route and the run directory of the view route's first scan — a re-read is one
// pread and one CRC verify. The bytes are not kept (the caches' job), nor are
// decoded edges (see ioBufs). The engine closes the handles as the run returns.
type blockHandle struct {
	// mu is held across each load through the handle: loads of one block take
	// turns, so a selective pass classifies its own reads only and a handle
	// past the bound closes a descriptor nobody else is reading.
	mu   sync.Mutex
	r    *storage.Reader // nil: the block has no base file (partition.BlockReader)
	keep bool
	idx  *partition.Index
	dir  graph.RunDir
}

// HandleBytes bounds what the handles of a run over a layout of manifest m
// come to hold: per non-empty sub-block and per vertex of its source interval
// (plus one), a record offset, under the delta codec a byte offset too, and a
// directory span of 12 bytes. Admission charges it (server.estimateBytes).
func HandleBytes(m *partition.Manifest) int64 {
	per := int64(8)
	if m.BlockCodec() == graph.CodecDelta {
		per = 8 + 8 + 12
	}
	var total int64
	for i, blocks := range m.NonEmptyBlocksPerRow() {
		total += int64(blocks) * int64(m.IntervalLen(i)+1) * per
	}
	return total
}

// handle returns sub-block (i, j)'s handle, locked; the caller ends its load
// with done.
func (s *blockSource) handle(i, j int) *blockHandle {
	k := buffer.Key{I: i, J: j, Gen: int64(s.layout.Meta.BlockGen(i, j))}
	s.hMu.Lock()
	h := s.handles[k]
	if h == nil {
		h = &blockHandle{r: s.layout.BlockReader(i, j), keep: len(s.handles) < s.maxOpen}
		s.handles[k] = h
	}
	s.hMu.Unlock()
	h.mu.Lock()
	return h
}

func (s *blockSource) done(h *blockHandle) {
	if !h.keep {
		h.r.Close()
	}
	h.mu.Unlock()
}

// close releases the handles' descriptors. The run's block streams are closed
// by now, and a closed stream has no fetch in flight.
func (s *blockSource) close() {
	s.hMu.Lock()
	defer s.hMu.Unlock()
	for _, h := range s.handles {
		h.mu.Lock()
		h.keep = false
		s.done(h)
	}
}

// full returns sub-block (i, j) decoded in full, overlay mutations merged in.
// With a shared cache configured the load goes through it, so concurrent
// jobs deduplicate device reads of the same block; a compressed cache hands
// back the payload and the caller's goroutine — a prefetch worker, usually —
// decodes it, so decode overlaps compute exactly like the reads themselves.
// Empty sub-blocks cost no I/O and no cache entry.
func (s *blockSource) full(i, j int) ([]graph.Edge, error) {
	if s.layout.Meta.SubBlockEdges(i, j) == 0 {
		return nil, nil
	}
	if s.shared == nil {
		return s.read(i, j)
	}
	key := buffer.Key{I: i, J: j, Gen: s.layout.BlockVersion(i, j)}
	size := s.layout.Meta.SubBlockBytes(i, j)
	packed := s.shared.Compressed()
	blk, hit, err := s.shared.GetOrLoadBlock(key, func() (blk buffer.Block, _ int64, err error) {
		if packed {
			h := s.handle(i, j)
			blk.Payload, err = s.layout.LoadSubBlockPayloadFrom(h.r, i, j, nil)
			s.done(h)
		} else {
			blk.Edges, err = s.read(i, j)
		}
		return blk, size, err
	})
	if err != nil {
		return nil, err
	}
	s.noteShared(hit)
	if blk.Payload == nil {
		return blk.Edges, nil
	}
	if !hit {
		s.notePacked(blk.Payload, size)
		return s.decode(i, j, blk.Payload)
	}
	t0 := time.Now()
	edges, err := s.unpack(i, j, blk.Payload)
	if err == nil {
		s.shared.NoteDecode(time.Since(t0))
	}
	return edges, err
}

// read is the device route of full: one sequential read through a pooled raw
// buffer, CRC verify, decode and overlay merge, all inside the layout.
func (s *blockSource) read(i, j int) ([]graph.Edge, error) {
	bufp := s.getBuf()
	h := s.handle(i, j)
	edges, buf, err := s.layout.LoadSubBlockFrom(h.r, i, j, nil, *bufp)
	s.done(h)
	*bufp = buf
	s.ioBufs.Put(bufp)
	return edges, err
}

func (s *blockSource) getBuf() *[]byte {
	if bufp, _ := s.ioBufs.Get().(*[]byte); bufp != nil {
		return bufp
	}
	return new([]byte)
}

// block is what a full-model pass scatters from: the sub-block's decoded
// edges or, on a pass over a sparse frontier, a run view of it (edges is then
// nil). The zero value is an empty sub-block.
type block struct {
	edges []graph.Edge
	runs  *runBlock
}

func (b block) empty() bool { return b.runs == nil && len(b.edges) == 0 }

// runBlock is sub-block (i, j) left undecoded: its CRC-verified payload, read
// through buf, and the run directory over it. Both belong to the source's
// pool; whoever was handed the block owns them until it calls release.
type runBlock struct {
	i, j int
	view graph.RunView
	buf  []byte
}

// viewed is the device route of full stopping short of the decode: the same
// sequential read and CRC verify, then the block's run directory over the
// payload where read would expand every edge — built by one scan
// (graph.RunView.Scan) the first time the run views the block, kept in its
// handle and re-attached to the verified bytes every time after. It is for delta
// layouts with no overlay and no shared cache in front; the engine asks for it
// only on passes whose frontier is sparse (sparsePass). A payload the scan
// declines — sources not ascending, or damage — goes to the full decoder,
// which decodes it or says what is wrong with it, so the caller gets edges or
// the decoded route's error. Scan and fallback are charged as decode time.
func (s *blockSource) viewed(i, j int) (block, error) {
	if s.layout.Meta.SubBlockEdges(i, j) == 0 {
		return block{}, nil
	}
	rb, _ := s.views.Get().(*runBlock)
	if rb == nil {
		rb = new(runBlock)
	}
	h := s.handle(i, j)
	payload, err := s.layout.LoadSubBlockPayloadFrom(h.r, i, j, rb.buf)
	if err != nil {
		s.done(h)
		s.views.Put(rb)
		return block{}, err
	}
	rb.i, rb.j, rb.buf = i, j, payload
	iLo, _ := s.layout.Meta.Interval(i)
	jLo, _ := s.layout.Meta.Interval(j)
	t0 := time.Now()
	ok := rb.view.Attach(h.dir, payload)
	if !ok {
		if ok = rb.view.Scan(payload, graph.VertexID(iLo), graph.VertexID(jLo), s.layout.Meta.Weighted); ok {
			h.dir = rb.view.Dir()
		}
	}
	s.done(h)
	if ok {
		s.layout.AddDecodeTime(time.Since(t0))
		s.viewBlocks.Add(1)
		return block{runs: rb}, nil
	}
	edges, err := graph.AppendDeltaBlock(nil, payload, graph.VertexID(iLo), graph.VertexID(jLo), s.layout.Meta.Weighted)
	s.layout.AddDecodeTime(time.Since(t0))
	s.views.Put(rb)
	if err != nil {
		return block{}, fmt.Errorf("core: decoding sub-block (%d,%d) [delta]: %w", i, j, err)
	}
	return block{edges: edges}, nil
}

// release ends the consumer's use of b: a run view's payload and directory go
// back to the pool for the next block. Decoded edges are not pooled (see
// ioBufs), so for them this is a no-op.
func (s *blockSource) release(b block) {
	if b.runs == nil {
		return
	}
	if s.poison {
		for k := range b.runs.buf {
			b.runs.buf[k] = 0xff // no varint ends: every later decode fails
		}
	}
	s.views.Put(b.runs)
}

func (s *blockSource) noteShared(hit bool) {
	if hit {
		s.sharedHits.Add(1)
	} else {
		s.sharedMisses.Add(1)
	}
}

// vertexRun records that edges[prev.end:end] of a selectiveBlock belong to
// vertex v, where prev is the preceding run (or 0 for the first).
type vertexRun struct {
	v   graph.VertexID
	end int
}

// selectiveBlock is the selectively-loaded content of one sub-block: the
// frontier vertices' edge runs concatenated in vertex order, with per-vertex
// boundaries for SCIU's cross-iteration cache.
type selectiveBlock struct {
	edges []graph.Edge
	runs  []vertexRun
}

// selective reads only the edges of sub-block (i, j) whose source is in
// frontier, located through the block's vertex index, so runs of consecutive
// frontier vertices become sequential reads. Each call is one pass over the
// block's reader (Restart): AutoReadAt's sequential/random classification is
// per call, on a prefetch worker or on the consumer. frontier must not change
// during the call. The result is appended to into (reset to length zero); pass
// the zero value unless the previous block is dead.
func (s *blockSource) selective(i, j int, frontier *bitset.ActiveSet, into selectiveBlock) (selectiveBlock, error) {
	blk := selectiveBlock{edges: into.edges[:0], runs: into.runs[:0]}
	idx, err := s.index(i, j)
	if err != nil {
		return blk, err
	}
	h := s.handle(i, j)
	defer s.done(h)
	if h.r != nil { // nil reader: the block lives entirely in the overlay
		if err := h.r.Restart(); err != nil {
			return blk, fmt.Errorf("core: opening sub-block (%d,%d): %w", i, j, err)
		}
	}
	bufp := s.getBuf()
	lo, hi := s.layout.Meta.Interval(i)
	var loopErr error
	frontier.ForEachRange(lo, hi, func(v int) bool {
		var edges []graph.Edge
		edges, *bufp, loopErr = s.layout.ReadVertexEdges(h.r, idx, i, graph.VertexID(v), *bufp)
		if loopErr != nil {
			return false
		}
		if len(edges) > 0 {
			blk.edges = append(blk.edges, edges...)
			blk.runs = append(blk.runs, vertexRun{v: graph.VertexID(v), end: len(blk.edges)})
		}
		return true
	})
	s.ioBufs.Put(bufp)
	if loopErr != nil {
		return blk, fmt.Errorf("core: selective read of sub-block (%d,%d): %w", i, j, loopErr)
	}
	return blk, nil
}

// index returns the vertex index of sub-block (i, j), loading it on first use
// and keeping it in the block's handle.
func (s *blockSource) index(i, j int) (*partition.Index, error) {
	h := s.handle(i, j)
	defer s.done(h)
	if h.idx == nil {
		idx, err := s.layout.LoadIndex(i, j)
		if err != nil {
			return nil, err
		}
		h.idx = idx
	}
	return h.idx, nil
}

// pack delta-codes a decoded sub-block for a compressed cache tier.
func (s *blockSource) pack(i, j int, edges []graph.Edge) []byte {
	iLo, _ := s.layout.Meta.Interval(i)
	jLo, _ := s.layout.Meta.Interval(j)
	return graph.EncodeDeltaBlock(nil, edges, graph.VertexID(iLo), graph.VertexID(jLo), s.layout.Meta.Weighted)
}

// notePacked records that a compressed tier admitted payload in place of
// decodedSize bytes of edges.
func (s *blockSource) notePacked(payload []byte, decodedSize int64) {
	s.compBytes.Add(int64(len(payload)))
	s.compDecodedBytes.Add(decodedSize)
}

// unpack decodes a payload a compressed cache tier was hit for, paying a
// decode instead of a device read.
func (s *blockSource) unpack(i, j int, payload []byte) ([]graph.Edge, error) {
	edges, err := s.decode(i, j, payload)
	if err == nil {
		s.compHits.Add(1)
	}
	return edges, err
}

// decode turns a delta-coded payload back into edges.
// EncodeDeltaBlock/AppendDeltaBlock round-trip any edge order exactly with
// bit-preserved weights, so the scatter consumes the identical edge sequence
// the device would have delivered.
func (s *blockSource) decode(i, j int, payload []byte) ([]graph.Edge, error) {
	iLo, _ := s.layout.Meta.Interval(i)
	jLo, _ := s.layout.Meta.Interval(j)
	t0 := time.Now()
	edges, err := graph.AppendDeltaBlock(nil, payload, graph.VertexID(iLo), graph.VertexID(jLo), s.layout.Meta.Weighted)
	s.decodeNanos.Add(time.Since(t0).Nanoseconds())
	if err != nil {
		return nil, fmt.Errorf("core: decoding cached sub-block (%d,%d): %w", i, j, err)
	}
	return edges, nil
}

// blockStream hands a driver the blocks it asks for, in the order it asks.
// reqs is the driver's consumption order as far as it is known up front:
// when prefetching is enabled those loads run ahead on an I/O pipeline, and a
// take of the list's head is served from it. Any other take — prefetching
// off, a cell left off the list, a block expected in a buffer and evicted
// since — is a synchronous load.
//
// A transient fault on a prefetched block does not abort the pass: the
// pipeline has cancelled its remaining admissions, so that block and every
// listed one after it are loaded synchronously (which carries the device's
// own retry policy). Those loads are the stream's fallbacks, counted into
// total once per consumed request from the degrading one onward. Permanent
// errors surface as-is.
type blockStream[T any] struct {
	ctx      context.Context
	reqs     []pipeline.Request
	load     func(i, j int) (T, error)
	pf       *pipeline.Prefetcher[T] // nil: nothing is prefetched
	next     int                     // reqs[next] is the pipeline's next delivery
	degraded bool
	total    *pipeline.Stats
}

// openBlockStream starts a stream over reqs; load must be safe on pipeline
// worker goroutines. close folds the pipeline's outcomes into total. A
// sequence too short to overlap anything is not prefetched.
func openBlockStream[T any](ctx context.Context, opts Options, total *pipeline.Stats, reqs []pipeline.Request, load func(i, j int) (T, error)) *blockStream[T] {
	s := &blockStream[T]{ctx: ctx, reqs: reqs, load: load, total: total}
	if opts.prefetchEnabled() && len(reqs) >= 2 {
		s.pf = pipeline.New(reqs, func(r pipeline.Request) (T, error) { return load(r.I, r.J) }, opts.prefetchOptions())
	}
	return s
}

// take returns block (i, j), or ctx's error once the run is cancelled.
func (s *blockStream[T]) take(i, j int) (T, error) {
	if err := s.ctx.Err(); err != nil {
		var zero T
		return zero, err
	}
	if s.pf != nil && s.next < len(s.reqs) && s.reqs[s.next].I == i && s.reqs[s.next].J == j {
		s.next++
		if !s.degraded {
			_, blk, err := s.pf.NextCtx(s.ctx)
			if err == nil || !storage.IsTransient(err) {
				return blk, err
			}
			s.degraded = true
		}
		s.total.Fallbacks++
	}
	return s.load(i, j)
}

// close shuts the pipeline down, cancelling any in-flight fetches.
func (s *blockStream[T]) close() {
	if s.pf != nil {
		s.pf.Close()
		*s.total = s.total.Add(s.pf.Stats())
	}
}

// bufferedBlock is the one get → miss → offer route through the per-run
// buffer, under the FCIU passes and the async row step alike. A resident block
// is served from memory — decoded edges as they are, a delta payload (SEM's
// compressed tier) decoded on the spot; every CRC, count and range check ran
// when the block was loaded, and a hit serves those verified edges again.
// Anything else comes from take — the caller's block stream — and is offered
// at priority(edges), in the representation packed selects. Like every buffer
// access it belongs to the goroutine running the schedule.
func (e *Engine) bufferedBlock(take func(i, j int) ([]graph.Edge, error), k buffer.Key, packed bool, priority func([]graph.Edge) int64) ([]graph.Edge, error) {
	if blk, ok := e.buf.Get(k); ok {
		if blk.Payload != nil {
			return e.src.unpack(k.I, k.J, blk.Payload)
		}
		return blk.Edges, nil
	}
	edges, err := take(k.I, k.J)
	if err != nil {
		return nil, err
	}
	e.offer(k, edges, packed, priority)
	return edges, nil
}

// offer offers the just-loaded sub-block k to the per-run buffer: packed as a
// delta payload charged its encoded size, or as the decoded edges themselves.
// A hit saves the block's on-disk bytes either way. The priority — for FCIU a
// scan of the block's edges — and the payload are computed only when they can
// decide the admission: an entry larger than the whole buffer is rejected,
// and counted, by Put before it looks at either.
func (e *Engine) offer(k buffer.Key, edges []graph.Edge, packed bool, priority func([]graph.Edge) int64) {
	size := e.layout.Meta.SubBlockBytes(k.I, k.J)
	disk := e.layout.Meta.SubBlockDiskBytes(k.I, k.J)
	capacity := e.buf.Capacity()
	switch {
	case size > capacity && (!packed || capacity <= 0):
		// A packed entry is charged its encoded size, known only once
		// encoded; but no payload fits a buffer of no capacity.
		e.buf.Put(k, buffer.Block{Edges: edges}, size, disk, 0)
	case packed:
		payload := e.src.pack(k.I, k.J, edges)
		if e.buf.Put(k, buffer.Block{Payload: payload}, size, disk, priority(edges)) {
			e.src.notePacked(payload, size)
		}
	default:
		e.buf.Put(k, buffer.Block{Edges: edges}, size, disk, priority(edges))
	}
}
