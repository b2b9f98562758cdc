package core

import (
	"context"
	"fmt"
	"math"
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
	// slices are pooled in one case only (edgeBufs): elsewhere consumers may
	// retain them (the decoded buffer tier, the FCIU diagonal, the shared
	// cache), and since every decoder allocates exactly once, exactly its size,
	// recycling them measured no gain (DESIGN.md §17). Nor are the payloads a
	// buffered miss reads (secondary), which the per-run buffer may keep; those
	// it lets go come back as spares.
	ioBufs sync.Pool

	// edgeBufs pools the slices a dense pass or async row decodes its buffered
	// cells into when the per-run buffer keeps payloads (Engine.payloads): the
	// buffer holds the payload, never these edges, and the consumer hands the
	// slice back right after its last scatter from it (release) — an FCIU
	// pass's diagonal after its column's apply, any other cell after its
	// scatters. Without the pool every buffer hit allocated its block's decoded
	// size again (DESIGN.md §17).
	edgeBufs sync.Pool

	// views pools the payload and directory memory of run-view blocks (see
	// viewed). Unlike decoded edges these are never retained: the pass that
	// took a view block releases it after its last scatter from it. A view
	// over a payload the per-run buffer keeps is not pooled (runBlock.kept).
	views sync.Pool
	// poison makes release scribble over a pooled block's memory — a view's
	// payload, a pooled decoded slice — before pooling it, so that a test
	// catches a scatter from a released block.
	poison bool

	// handles holds what the run keeps of each sub-block it has touched, keyed
	// by grid cell and file generation — the resolved file name, unbuilt — and
	// of each HUS-Graph row (i, -1) and column (-1, j) (partition.BlockLabel).
	// The first maxOpen of them keep their descriptor open between loads.
	hMu     sync.Mutex
	handles map[buffer.Key]*blockHandle
	maxOpen int

	// sharedHits/sharedMisses count full loads served by / missed in the
	// shared cache. The comp* counters are the compressed tiers' accounting
	// (see SEMStats): hits served from a payload, and payload and decoded
	// bytes admitted.
	sharedHits, sharedMisses              atomic.Int64
	compHits, compBytes, compDecodedBytes atomic.Int64
	// viewBlocks counts the blocks delivered as run views.
	viewBlocks atomic.Int64

	// spares is payload memory the per-run buffer let go — residents it
	// evicted, offers it rejected — collected during a fetch plan (collect)
	// and handed over once nothing reads it (recycle). A buffered miss reads
	// into one whose capacity is exactly the cell's on-disk size (spare), so a
	// resident never holds memory it is not charged for. spareBytes is their
	// capacity and pendingBytes that of the payloads collected but not yet
	// recycled; the two together stay at most the per-run buffer's capacity
	// (RunBytes prices it). spareHigh is the most they came to and spareHits
	// the misses the spares served, for the tests.
	spMu                                sync.Mutex
	spares                              [][]byte
	spareBytes, pendingBytes, spareHigh int64
	spareHits                           int
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

// RunBytes bounds the memory a run of prog (nil: no aux array, no kernel) under
// opts over a layout of manifest m holds at its peak — what admission charges
// a job (server.estimateBytes). It adds up
//
//   - the per-vertex state: NewEngine's four float64 arrays and five vertex
//     sets, the aux array (Program.HasAux), the two term arrays of a program
//     on KernelSumOverOutDegree, the async schedule's three more sets and its
//     frontier's vertex list (at most an interval), and what run adds — the
//     uint32 degree table, the file it is read from, the float64 outputs;
//   - the per-run buffer's capacity, the prefetch window and what the block
//     handles keep (HandleBytes);
//   - under payload residency (Engine.payloads) the edgeBufs slices: one per
//     block a dense pass or row has in flight plus the consumer's — and under
//     BSP the diagonal an FCIU pass holds across its column — each up to the
//     decoded size of the largest cell, since every cell of either goes
//     through the buffer — and, with no shared cache, the spares the buffer's
//     evictions and rejections leave and the payloads collected for them
//     (blockSource.spares): its capacity again;
//   - under Async, for a label-correcting program, what a drain's value-order
//     phase lays out (drainBytes);
//   - with checkpointing on, the encoded image its checkpoint.Writer keeps
//     for the whole run (checkpointBytes).
//
// TestRunBytesCoversEngineArrays holds the first item to what an engine
// allocates, TestRunBytesPricesCheckpointImage the last to the file it writes.
func RunBytes(m *partition.Manifest, opts Options, prog Program) int64 {
	total := vertexStateBytes(m, opts.Async, prog) + max(opts.bufferBytes(m), 0) + HandleBytes(m)
	if mono, ok := prog.(Monotonic); ok && opts.Async && mono.LabelCorrecting() {
		total += drainBytes(m)
	}
	if opts.Checkpoint.saveEnabled() {
		total += checkpointBytes(m, opts.Async, prog != nil && prog.HasAux())
	}
	slices := int64(1)
	if opts.prefetchEnabled() {
		po := opts.prefetchOptions()
		total += po.Bytes
		slices += int64(po.Depth)
	}
	if opts.payloads(m) {
		if opts.SharedBlocks == nil {
			total += max(opts.bufferBytes(m), 0)
		}
		if !opts.Async {
			slices++
		}
		var largest int64
		for i := 0; i < m.P; i++ {
			for j := 0; j < m.P; j++ {
				largest = max(largest, m.SubBlockBytes(i, j))
			}
		}
		total += slices * largest
	}
	return total
}

// vertexStateBytes is RunBytes' first item: the per-vertex state of a run.
func vertexStateBytes(m *partition.Manifest, async bool, prog Program) int64 {
	n := int64(m.NumVertices)
	set := (n + 63) / 64 * 8
	total := 4*8*n + 5*set + (4+4+8)*n
	if prog != nil && prog.HasAux() {
		total += 8 * n
	}
	if k, _ := kernelOf(prog); k == KernelSumOverOutDegree {
		total += 2 * 8 * n
	}
	if async {
		total += 3*set + 8*longestInterval(m)
	}
	return total
}

// checkpointBytes bounds a run's encoded checkpoint image: 8 bytes an element
// of what capture hands the writer — values, accumulators, aux, the frontier
// and touched sets, under Async the P enqueue steps and the consumed set —
// and 256 for the magic, CRC, program name, counts and length prefixes.
func checkpointBytes(m *partition.Manifest, async, aux bool) int64 {
	n := int64(m.NumVertices)
	set := (n + 63) / 64 * 8
	total := 2*8*n + 2*set + 256
	if aux {
		total += 8 * n
	}
	if async {
		total += 8*int64(m.P) + set
	}
	return total
}

// drainBytes bounds what settleInOrder keeps: the largest diagonal cell
// decoded twice — into the engine's scratch slice, then in source order — a run
// offset a vertex of the longest interval, and a 16-byte heap entry a vertex
// and a diagonal edge, one push per improvement.
func drainBytes(m *partition.Manifest) int64 {
	var cellBytes, cellEdges int64
	for i := 0; i < m.P; i++ {
		cellBytes, cellEdges = max(cellBytes, m.SubBlockBytes(i, i)), max(cellEdges, m.SubBlockEdges(i, i))
	}
	span := longestInterval(m)
	return 2*cellBytes + 8*(span+2) + 16*(span+cellEdges)
}

func longestInterval(m *partition.Manifest) int64 {
	var span int64
	for i := 0; i < m.P; i++ {
		span = max(span, int64(m.IntervalLen(i)))
	}
	return span
}

// handle returns block (i, j)'s handle — a sub-block's, a HUS-Graph row's or
// column's — locked; the caller ends its load with done.
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
		return s.read(i, j, nil)
	}
	blk, hit, err := s.fromShared(i, j)
	if err != nil || blk.Payload == nil {
		return blk.Edges, err
	}
	return s.unpack(i, j, blk.Payload, hit, nil)
}

// fromShared is a full load through the shared cache: sub-block (i, j) in the
// cache's form — decoded edges, or a compressed cache's payload — loaded from
// the device on a miss, and whether the cache served it.
func (s *blockSource) fromShared(i, j int) (buffer.Block, bool, error) {
	key := buffer.Key{I: i, J: j, Gen: s.layout.BlockVersion(i, j)}
	size := s.layout.Meta.SubBlockBytes(i, j)
	packed := s.shared.Compressed()
	blk, hit, err := s.shared.GetOrLoadBlock(key, func() (blk buffer.Block, _ int64, err error) {
		if packed {
			h := s.handle(i, j)
			blk.Payload, err = s.layout.LoadSubBlockPayloadFrom(h.r, i, j, nil)
			s.done(h)
		} else {
			blk.Edges, err = s.read(i, j, nil)
		}
		return blk, size, err
	})
	if err != nil {
		return blk, false, err
	}
	s.noteShared(hit)
	switch {
	case blk.Payload == nil:
	case hit:
		s.compHits.Add(1)
	default:
		s.notePacked(blk.Payload, size)
	}
	return blk, hit, nil
}

// unpack decodes a compressed shared cache's payload into dst, reporting a
// hit's decode time to the cache.
func (s *blockSource) unpack(i, j int, payload []byte, hit bool, dst []graph.Edge) ([]graph.Edge, error) {
	t0 := time.Now()
	edges, err := s.decode(i, j, payload, dst)
	if hit && err == nil {
		s.shared.NoteDecode(time.Since(t0))
	}
	return edges, err
}

// read is the device route of full, and HUS-Graph's column load (i < 0): one
// sequential read through a pooled raw buffer, CRC verify, decode into dst
// (reset) and overlay merge, all inside the layout.
func (s *blockSource) read(i, j int, dst []graph.Edge) ([]graph.Edge, error) {
	bufp := s.getBuf()
	h := s.handle(i, j)
	edges, buf, err := s.layout.LoadSubBlockFrom(h.r, i, j, dst, *bufp)
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
	// pooled is the edgeBufs slice edges were decoded into, handed back by
	// release; nil when the edges are not the source's to reuse.
	pooled *[]graph.Edge
	// payload is a buffered cell's delta payload, loaded for the consumer to
	// offer to the per-run buffer (Engine.takeBuffered): memory of its own,
	// never the source's pools, and nil when the buffer could not hold it.
	payload []byte
}

func (b block) empty() bool { return b.runs == nil && len(b.edges) == 0 }

// runBlock is sub-block (i, j) left undecoded: its CRC-verified payload, read
// through buf, and the run directory over it. Both belong to the source's
// pool — whoever was handed the block owns them until it calls release —
// unless kept says buf is a payload the per-run buffer keeps, which nothing
// may write to: such a runBlock is left to the garbage collector.
type runBlock struct {
	i, j int
	view graph.RunView
	buf  []byte
	kept bool
}

// viewed is the device route of full stopping short of the decode: the same
// sequential read and CRC verify into a pooled buffer, then a run view of the
// payload (view). It is for delta layouts with no overlay and no shared cache
// in front; the engine asks for it only on streams whose frontier is sparse
// (openFetch).
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
	rb.buf = payload
	return s.view(h, i, j, rb)
}

// view makes a pass block of rb.buf, sub-block (i, j)'s verified delta payload:
// the block's run directory over it where a decode would expand every edge —
// built by one scan (graph.RunView.Scan) the first time the run views the
// block, kept in its handle and re-attached to the bytes every time after. A
// payload the scan declines — sources not ascending or outside the cell, or
// damage — goes to the full decoder, which decodes it or says what is wrong
// with it, so the caller gets edges or the decoded route's error. Scan and
// fallback are charged as decode time. h is the block's handle, locked; view
// ends the load through it.
func (s *blockSource) view(h *blockHandle, i, j int, rb *runBlock) (block, error) {
	rb.i, rb.j = i, j
	cell := s.layout.Meta.Cell(i, j)
	t0 := time.Now()
	ok := rb.view.Attach(h.dir, rb.buf)
	if !ok {
		if ok = rb.view.ScanCell(rb.buf, cell, s.layout.Meta.Weighted); ok {
			h.dir = rb.view.Dir()
		}
	}
	s.done(h)
	if ok {
		s.layout.AddDecodeTime(time.Since(t0))
		s.viewBlocks.Add(1)
		return block{runs: rb}, nil
	}
	edges, err := graph.AppendDeltaCell(nil, rb.buf, cell, s.layout.Meta.Weighted)
	s.layout.AddDecodeTime(time.Since(t0))
	if !rb.kept {
		s.views.Put(rb)
	}
	if err != nil {
		return block{}, fmt.Errorf("core: decoding sub-block (%d,%d) [delta]: %w", i, j, err)
	}
	return block{edges: edges}, nil
}

// secondary loads buffered cell (i, j) for a stream whose per-run buffer keeps
// delta payloads (Engine.payloads): decoded into a pooled slice or, on a sparse
// pass or row, as a run view — and, when keep says the buffer could hold it,
// with the payload the consumer offers it: the verified bytes the device
// returned, read into a spare of their size (with no overlay) or into memory
// of their own, never a pooled buffer; a compressed shared cache's entry; or, behind a raw shared
// cache, the edges encoded here, on the prefetch worker. (On a layout with an
// overlay the device's payload is the merged block, encoded by the layout.)
func (s *blockSource) secondary(i, j int, sparse, keep bool) (block, error) {
	if s.layout.Meta.SubBlockEdges(i, j) == 0 {
		return block{}, nil
	}
	if s.shared != nil {
		blk, hit, err := s.fromShared(i, j)
		if err != nil {
			return block{}, err
		}
		if blk.Payload == nil {
			out := block{edges: blk.Edges} // the cache's: not pooled
			if keep {
				t0 := time.Now()
				out.payload = s.pack(i, j, blk.Edges)
				s.layout.AddDecodeTime(time.Since(t0))
			}
			return out, nil
		}
		out, err := s.pooled(func(dst []graph.Edge) ([]graph.Edge, error) { return s.unpack(i, j, blk.Payload, hit, dst) })
		if keep {
			out.payload = blk.Payload
		}
		return out, err
	}
	switch {
	case !keep && sparse:
		return s.viewed(i, j)
	case !keep:
		return s.pooled(func(dst []graph.Edge) ([]graph.Edge, error) { return s.read(i, j, dst) })
	}
	h := s.handle(i, j)
	var buf []byte
	if s.layout.Overlay == nil { // else the payload may be the merged block, encoded afresh
		buf = s.spare(s.layout.Meta.SubBlockDiskBytes(i, j))
	}
	payload, err := s.layout.LoadSubBlockPayloadFrom(h.r, i, j, buf)
	s.done(h)
	if err != nil {
		return block{}, err
	}
	out, err := s.expand(i, j, payload, sparse)
	out.payload = payload
	return out, err
}

// resident serves buffered cell (i, j) from payload, the per-run buffer's
// resident copy — on a prefetch worker, or on the consumer when the stream is
// inline or its fetch plan left the cell off (openFetch): a hit costs a decode
// or a view, never a read. The payload was verified when it was loaded.
func (s *blockSource) resident(i, j int, payload []byte, sparse bool) (block, error) {
	blk, err := s.expand(i, j, payload, sparse)
	if err == nil {
		s.compHits.Add(1)
	}
	return blk, err
}

// expand makes a pass block of payload, which the per-run buffer keeps or
// may keep: a run view over it on a sparse pass — never pooled or poisoned —
// or its edges decoded into a pooled slice.
func (s *blockSource) expand(i, j int, payload []byte, sparse bool) (block, error) {
	if sparse {
		return s.view(s.handle(i, j), i, j, &runBlock{buf: payload, kept: true})
	}
	return s.pooled(func(dst []graph.Edge) ([]graph.Edge, error) { return s.decode(i, j, payload, dst) })
}

// pooled runs fill over a slice of edgeBufs and returns the edges it produced
// as a block whose consumer hands the slice back through release.
func (s *blockSource) pooled(fill func(dst []graph.Edge) ([]graph.Edge, error)) (block, error) {
	p, _ := s.edgeBufs.Get().(*[]graph.Edge)
	if p == nil {
		p = new([]graph.Edge)
	}
	edges, err := fill((*p)[:0])
	if err != nil {
		s.edgeBufs.Put(p)
		return block{}, err
	}
	*p = edges
	return block{edges: edges, pooled: p}, nil
}

// release ends the consumer's use of b: a pooled decoded slice, or a run
// view's payload and directory, go back to their pool for the next block.
// Other decoded edges are not the source's (see ioBufs), and a kept view's
// payload is the per-run buffer's: for them this is a no-op.
func (s *blockSource) release(b block) {
	if b.pooled != nil {
		if s.poison {
			for k := range b.edges {
				b.edges[k] = graph.Edge{Src: math.MaxUint32, Dst: math.MaxUint32} // outside every interval
			}
		}
		s.edgeBufs.Put(b.pooled)
	}
	if b.runs == nil || b.runs.kept {
		return
	}
	if s.poison {
		for k := range b.runs.buf {
			b.runs.buf[k] = 0xff // no varint ends: every later decode fails
		}
	}
	s.views.Put(b.runs)
}

// spare takes a spare of capacity exactly size, emptied, or returns nil.
func (s *blockSource) spare(size int64) []byte {
	s.spMu.Lock()
	defer s.spMu.Unlock()
	for k, p := range s.spares {
		if int64(cap(p)) == size {
			last := len(s.spares) - 1
			s.spares[k], s.spares[last] = s.spares[last], nil
			s.spares = s.spares[:last]
			s.spareBytes -= size
			s.spareHits++
			return p[:0]
		}
	}
	return nil
}

// collect keeps, of the payloads spent[n:] the buffer just let go, those that
// fit beside the spares and the payloads already collected in limit bytes, and
// drops the rest, which are garbage once their blocks are released.
func (s *blockSource) collect(spent [][]byte, n int, limit int64) [][]byte {
	s.spMu.Lock()
	defer s.spMu.Unlock()
	kept := spent[:n]
	for _, p := range spent[n:] {
		if s.spareBytes+s.pendingBytes+int64(cap(p)) <= limit {
			kept = append(kept, p)
			s.pendingBytes += int64(cap(p))
		}
	}
	clear(spent[len(kept):])
	s.spareHigh = max(s.spareHigh, s.spareBytes+s.pendingBytes)
	return kept
}

// recycle makes the payloads collect kept spares: memory the per-run buffer
// let go, which nothing reads any more. Under poison each is scribbled first,
// so that a read of one after it was let go fails.
func (s *blockSource) recycle(payloads [][]byte) {
	s.spMu.Lock()
	defer s.spMu.Unlock()
	for _, p := range payloads {
		if s.poison {
			whole := p[:cap(p)]
			for k := range whole {
				whole[k] = 0xff // no varint ends: every later decode fails
			}
		}
		s.spares = append(s.spares, p)
	}
	s.spareBytes += s.pendingBytes
	s.pendingBytes = 0
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
// boundaries for SCIU's cross-iteration scatter.
type selectiveBlock struct {
	edges []graph.Edge
	runs  []vertexRun
}

// selective reads only the edges of sub-block (i, j) — or of HUS-Graph row i,
// (i, -1) — whose source is in frontier, located through the block's vertex
// index, so runs of consecutive frontier vertices become sequential reads. Each
// call is one pass over the block's reader (Restart): AutoReadAt's
// sequential/random classification is per call, on a prefetch worker or on the
// consumer. frontier must not change during the call. The result is appended
// to into (reset to length zero); pass the zero value unless the previous
// block is dead.
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
			return blk, fmt.Errorf("core: opening %s: %w", partition.BlockLabel(i, j), err)
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
		return blk, fmt.Errorf("core: selective read of %s: %w", partition.BlockLabel(i, j), loopErr)
	}
	return blk, nil
}

// index returns the vertex index of sub-block (i, j) or row (i, -1), loading
// it on first use and keeping it in the block's handle.
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

// pack delta-codes a decoded sub-block for the per-run buffer's payload tier.
func (s *blockSource) pack(i, j int, edges []graph.Edge) []byte {
	c := s.layout.Meta.Cell(i, j)
	return graph.EncodeDeltaBlock(nil, edges, graph.VertexID(c.SrcLo), graph.VertexID(c.DstLo), s.layout.Meta.Weighted)
}

// notePacked records that a compressed tier admitted payload in place of
// decodedSize bytes of edges.
func (s *blockSource) notePacked(payload []byte, decodedSize int64) {
	s.compBytes.Add(int64(len(payload)))
	s.compDecodedBytes.Add(decodedSize)
}

// decode turns a delta-coded payload back into edges, appended to dst (reset),
// charged as the layout's decode time. EncodeDeltaBlock/AppendDeltaCell
// round-trip any edge order exactly with bit-preserved weights, so the scatter
// consumes the identical edge sequence the device would have delivered.
func (s *blockSource) decode(i, j int, payload []byte, dst []graph.Edge) ([]graph.Edge, error) {
	t0 := time.Now()
	edges, err := graph.AppendDeltaCell(dst[:0], payload, s.layout.Meta.Cell(i, j), s.layout.Meta.Weighted)
	s.layout.AddDecodeTime(time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("core: decoding cached sub-block (%d,%d): %w", i, j, err)
	}
	return edges, nil
}

// blockStream hands a driver the blocks it asks for, in the order it asks.
// reqs is the driver's consumption order as far as it is known up front:
// when prefetching is enabled a take of the list's head is served from it —
// run ahead on an I/O pipeline or, on a stream of run views, loaded inline.
// Any other take — prefetching off, a cell left off the list, a block
// expected in a buffer and evicted since — is a synchronous load.
//
// A transient fault on a listed block does not abort the pass: the stream
// degrades (a pipeline has cancelled its remaining admissions), so that block
// and every listed one after it are loaded synchronously (which carries the
// device's own retry policy). Those loads are the stream's fallbacks, counted
// into total once per consumed request from the degrading one onward.
// Permanent errors surface as-is.
type blockStream[T any] struct {
	ctx      context.Context
	reqs     []pipeline.Request
	load     func(i, j int) (T, error)
	pf       *pipeline.Prefetcher[T] // nil: nothing is prefetched
	inline   bool                    // the list's head is loaded on the consumer
	next     int                     // reqs[next] is the list's next delivery
	degraded bool
	total    *pipeline.Stats
}

// openBlockStream starts a stream over reqs; load must be safe on pipeline
// worker goroutines. close folds the pipeline's outcomes into total. A
// sequence too short to overlap anything is not listed. A stream of views —
// every cell arriving as a run view, on a lattice a few µs of work, less than
// handing it to a worker costs (BenchmarkBlockStreamShortList) — loads its list
// inline: counted as the pipeline counts a delivery, the whole load as stall.
func openBlockStream[T any](ctx context.Context, opts Options, total *pipeline.Stats, reqs []pipeline.Request, views bool, load func(i, j int) (T, error)) *blockStream[T] {
	listed := opts.prefetchEnabled() && len(reqs) >= 2
	s := &blockStream[T]{ctx: ctx, reqs: reqs, load: load, inline: listed && views, total: total}
	if listed && !views {
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
	if (s.pf != nil || s.inline) && s.next < len(s.reqs) && s.reqs[s.next].I == i && s.reqs[s.next].J == j {
		s.next++
		if !s.degraded {
			blk, err := s.head(s.reqs[s.next-1])
			if err == nil || !storage.IsTransient(err) {
				return blk, err
			}
			s.degraded = true
		}
		s.total.Fallbacks++
	}
	return s.load(i, j)
}

// head delivers the list's next request, r.
func (s *blockStream[T]) head(r pipeline.Request) (T, error) {
	if s.pf != nil {
		_, blk, err := s.pf.NextCtx(s.ctx)
		return blk, err
	}
	t0 := time.Now()
	blk, err := s.load(r.I, r.J)
	if d := time.Since(t0); err == nil {
		*s.total = s.total.Add(pipeline.Stats{Blocks: 1, Inline: 1, Bytes: r.Bytes, Fetch: d, Stall: d})
	}
	return blk, err
}

// close shuts the pipeline down, cancelling any in-flight fetches.
func (s *blockStream[T]) close() {
	if s.pf != nil {
		s.pf.Close()
		*s.total = s.total.Add(s.pf.Stats())
	}
}

// viewable reports whether the run's blocks can reach a scatter as run views:
// delta-coded payloads straight off the device or out of the per-run buffer,
// with no overlay to merge and no shared cache that wants the decoded edges.
func (e *Engine) viewable() bool {
	return e.layout.Meta.BlockCodec() == graph.CodecDelta && e.layout.Overlay == nil && e.opts.SharedBlocks == nil
}

// heldCell is a fetch plan's sample of one cell of a buffer of payloads
// (Engine.held): whether the buffer was asked for the cell, and the payload it
// answered with — immutable, so a later eviction changes nothing — or nil for a
// miss.
type heldCell struct {
	payload []byte
	sampled bool
}

// openFetch is the fetch plan of one pass or async row: it opens the block
// stream over cells, in the order the driver takes them, for a frontier of
// active vertices out of span. It chooses the route once — narrow at most one
// in sparseViewDensity active, sparse (every cell a run view, the stream
// inline) at most one in density over viewable blocks — and lists the cells
// the stream loads. Residency is sampled on the consumer only, and the
// stream's loads never touch the buffer. Of a buffered stream's cells:
//
//   - A buffer of decoded edges (raw layouts) serves its residents to the
//     consumer as they are (takeBuffered), so they stay off the list; a
//     mid-pass eviction costs the consumer a synchronous load rather than a
//     data race.
//   - A buffer of payloads (Engine.payloads) is asked for every cell here, and
//     the answer kept in held. A miss goes on the list, and so does a hit over
//     a frontier that is not narrow. A narrow hit stays off, and the stream's
//     take serves it on the consumer uncounted: there a view is an O(1) attach,
//     and a pipeline overlaps a few blocks by less than starting it costs
//     (DESIGN.md §17). Where no block is viewed — behind an overlay or a
//     shared cache — narrow decides whether such a hit decodes on a worker or
//     on the consumer.
//
// The stream's one load is a held payload's decode or view, or a miss's load
// with the payload to offer (heldBlock); else a run view on a sparse stream,
// else the block decoded in full.
func (e *Engine) openFetch(active, span, density int, buffered bool, cells []buffer.Key) *blockStream[block] {
	if e.fetchOpened != nil {
		e.fetchOpened(active, span, cells)
	}
	narrow := active*sparseViewDensity <= span
	sparse := active*density <= span && e.viewable()
	held := buffered && e.payloads
	clear(e.held)
	var reqs []pipeline.Request
	for _, k := range cells {
		switch {
		case held:
			res, _ := e.buf.Get(k)
			e.held[k.I*e.p+k.J] = heldCell{payload: res.Payload, sampled: true}
			if res.Payload != nil && narrow {
				continue
			}
		case buffered && e.buf.Contains(k):
			continue
		}
		reqs = append(reqs, pipeline.Request{I: k.I, J: k.J, Bytes: e.layout.Meta.SubBlockBytes(k.I, k.J)})
	}
	return openBlockStream(e.ctx, e.opts, &e.plStats, reqs, sparse, func(i, j int) (block, error) {
		switch {
		case held:
			return e.heldBlock(i, j, sparse)
		case sparse:
			return e.src.viewed(i, j)
		}
		edges, err := e.src.full(i, j)
		return block{edges: edges}, err
	})
}

// heldBlock is a buffered stream's load of a cell openFetch sampled, on a
// prefetch worker or on the consumer: a hit from the held payload, a miss from
// the device with the payload to offer when the buffer could hold it.
func (e *Engine) heldBlock(i, j int, sparse bool) (block, error) {
	if payload := e.held[i*e.p+j].payload; payload != nil {
		return e.src.resident(i, j, payload, sparse)
	}
	return e.src.secondary(i, j, sparse, e.layout.Meta.SubBlockDiskBytes(i, j) <= e.buf.Capacity())
}

// takeBuffered takes cell k of a buffered stream (openFetch) through the
// per-run buffer, with one lookup per take. A buffer of decoded edges is asked
// here and serves a resident as it is: every CRC, count and range check ran
// when the block was loaded. A buffer of payloads was asked as the cell was
// listed, or is asked here for a cell the plan was not handed — a dead row's,
// which FCIU's cross scatter needs. Anything else comes from st and is offered
// at rank. Like every buffer access it belongs to the goroutine running the
// schedule, so the buffer's statistics are unchanged by pipelining.
func (e *Engine) takeBuffered(st *blockStream[block], k buffer.Key, rank func([]graph.Edge) int64) (block, error) {
	var hit bool
	if !e.payloads {
		if res, ok := e.buf.Get(k); ok {
			return block{edges: res.Edges}, nil
		}
	} else {
		h := &e.held[k.I*e.p+k.J]
		if !h.sampled {
			res, _ := e.buf.Get(k)
			*h = heldCell{payload: res.Payload, sampled: true}
		}
		hit = h.payload != nil
	}
	blk, err := st.take(k.I, k.J)
	if err == nil && !hit {
		e.offer(k, blk, rank)
	}
	return blk, err
}

// endFetch closes the stream of a fetch plan (openFetch) and then makes the
// payloads its offers collected the source's spares. Not before: until the
// stream is closed and its blocks released, a view over one, a held sample of
// one or FCIU's diagonal may still read it.
func (e *Engine) endFetch(st *blockStream[block]) {
	st.close()
	e.src.recycle(e.spent)
	clear(e.spent)
	e.spent = e.spent[:0]
}

// offer offers the cell k a stream just loaded to the per-run buffer at
// rank(edges), which is computed only when it can decide the admission: an
// entry larger than the whole buffer is rejected, and counted, by Put before it
// looks at it. A buffer of decoded edges is charged their decoded size; a
// buffer of payloads (Engine.payloads) the block's delta payload, charged its
// length — the on-disk size of a verified payload. A block the loader did not
// keep (larger than the whole buffer) comes without a payload and is still
// offered, so that Put rejects and counts it. A hit saves the block's on-disk
// bytes. With no shared cache — whose payloads are not the run's — the payloads
// the buffer lets go, evicted or rejected, are collected for endFetch, as many
// as fit beside the spares in the buffer's capacity (collect).
func (e *Engine) offer(k buffer.Key, blk block, rank func([]graph.Edge) int64) {
	disk := e.layout.Meta.SubBlockDiskBytes(k.I, k.J)
	size, res := e.layout.Meta.SubBlockBytes(k.I, k.J), buffer.Block{Edges: blk.edges}
	if e.payloads {
		size, res = disk, buffer.Block{Payload: blk.payload}
	}
	var priority int64
	if size <= e.buf.Capacity() {
		priority = rank(blk.edges)
	}
	var spent *[][]byte
	if e.src.shared == nil {
		spent = &e.spent
	}
	n := len(e.spent)
	kept := e.buf.Put(k, res, size, disk, priority, spent)
	switch {
	case res.Payload == nil:
	case kept:
		e.src.notePacked(res.Payload, e.layout.Meta.SubBlockBytes(k.I, k.J))
	case spent != nil:
		e.spent = append(e.spent, res.Payload)
	}
	if spent != nil {
		e.spent = e.src.collect(e.spent, n, e.buf.Capacity())
	}
}
