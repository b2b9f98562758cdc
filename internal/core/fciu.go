package core

import (
	"context"

	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/pipeline"
	"github.com/graphsd/graphsd/internal/storage"
)

// fciuMode selects which grid cells an FCIU/full pass will read from disk,
// which is exactly the set the pass's I/O pipeline prefetches.
type fciuMode int

const (
	// fciuFirstCells: every cell, column-major; upper-triangle cells are
	// excluded when they will be streamed in chunks instead.
	fciuFirstCells fciuMode = iota
	// fciuSecondCells: secondary cells (i > j) only.
	fciuSecondCells
	// fullCells: every cell; all excluded when streaming is configured.
	// The priority buffer is not consulted in this mode.
	fullCells
)

// fciuPass drives the prefetched consumption of one FCIU or full pass. The
// request list is built in the exact order the pass consumes sub-blocks, so
// the consumer only has to check whether the cell it is about to process is
// the pipeline's next delivery.
//
// degraded records that a prefetched block failed with a transient fault:
// the pipeline has cancelled its remaining admissions, so the rest of the
// pass falls back to synchronous loads (which carry the device's own retry
// policy) instead of aborting the run. fallbacks counts the blocks loaded
// that way.
type fciuPass struct {
	pf        *pipeline.Prefetcher[[]graph.Edge]
	ctx       context.Context
	reqs      []pipeline.Request
	next      int
	degraded  bool
	fallbacks int
}

// newFCIUPass snapshots the buffer residency and builds the pass's prefetch
// sequence: non-empty cells in consumption order, minus cells that will be
// streamed in chunks, secondary cells expected to hit the buffer, and —
// under SEM — cells of rows the activity bitmap proves dead, which never
// enqueue a read at all. (A dead-row upper-triangle cell that the
// cross-iteration phase turns out to need is loaded synchronously by the
// consumer.) Residency is only sampled here — the pipeline's fetch workers
// never touch the buffer, so mid-pass evictions cost a synchronous fallback
// load in the consumer rather than a data race.
func (e *Engine) newFCIUPass(mode fciuMode) *fciuPass {
	resident := make(map[buffer.Key]bool)
	if mode != fullCells {
		for _, k := range e.buf.Keys() {
			resident[k] = true
		}
	}
	var reqs []pipeline.Request
	for j := 0; j < e.p; j++ {
		iLo := 0
		if mode == fciuSecondCells {
			iLo = j + 1
		}
		for i := iLo; i < e.p; i++ {
			if e.layout.Meta.SubBlockEdges(i, j) == 0 {
				continue
			}
			if e.sem != nil && !e.sem.rowLive(i) {
				continue
			}
			if e.opts.StreamChunkBytes > 0 && (mode == fullCells || (mode == fciuFirstCells && i < j)) {
				continue
			}
			if mode != fullCells && i > j && resident[buffer.Key{I: i, J: j}] {
				continue
			}
			reqs = append(reqs, pipeline.Request{I: i, J: j, Bytes: e.layout.Meta.SubBlockBytes(i, j)})
		}
	}
	return &fciuPass{pf: e.newBlockPrefetcher(reqs), ctx: e.ctx, reqs: reqs}
}

// take returns the prefetched edges for sub-block (i, j) when it is the
// pipeline's next delivery; ok is false when (i, j) was not prefetched
// (pipelining off, cell streamed/empty, expected buffer hit, or the pass has
// degraded to synchronous loads) and the caller must load synchronously.
//
// A transient fetch error does not abort the pass: the failing block and
// every later one are reported as not-prefetched, so the caller re-reads
// them synchronously through the device's retry path. Permanent errors are
// surfaced as-is.
//
// fallbacks is incremented in exactly one place, once per consumed request
// from the degrading one onward — no matter whether the degradation struck
// the first request of the pass or a later one — so it equals the number of
// synchronous fallback loads the caller performs for prefetched cells.
func (p *fciuPass) take(i, j int) (edges []graph.Edge, ok bool, err error) {
	if p.pf == nil || p.next >= len(p.reqs) || p.reqs[p.next].I != i || p.reqs[p.next].J != j {
		return nil, false, nil
	}
	p.next++
	if !p.degraded {
		_, edges, err = p.pf.NextCtx(p.ctx)
		if err == nil || !storage.IsTransient(err) {
			return edges, true, err
		}
		p.degraded = true
	}
	p.fallbacks++
	return nil, false, nil
}

// finish shuts the pass's pipeline down (cancelling any in-flight fetches)
// and folds its stats into the run totals.
func (e *Engine) finishFCIUPass(p *fciuPass) {
	if p.pf != nil {
		e.finishPrefetch(p.pf)
	}
	e.plStats.Fallbacks += p.fallbacks
}

// nextFCIUBlock fetches sub-block (i, j) for an FCIU pass, preferring the
// prefetch pipeline. Secondary sub-blocks (i > j) consult the priority
// buffer first and are offered to it after a miss, with priority equal to
// their current active-edge count — the same contract as the synchronous
// path, so buffer hit/miss statistics are unchanged by pipelining.
func (e *Engine) nextFCIUBlock(p *fciuPass, i, j int) ([]graph.Edge, error) {
	if e.layout.Meta.SubBlockEdges(i, j) == 0 {
		return nil, nil
	}
	if i <= j {
		if edges, ok, err := p.take(i, j); ok {
			return edges, err
		}
		return e.loadBlock(i, j)
	}
	k := buffer.Key{I: i, J: j}
	if e.opts.SEM {
		// Compressed buffer tier: residents are delta payloads, decoded on
		// hit. Decode round-trips the edge order exactly, so the scatter
		// consumes the same sequence as an uncached load.
		if edges, payload, ok := e.buf.GetEntry(k); ok {
			if payload == nil {
				return edges, nil
			}
			decoded, err := e.decodePayload(i, j, payload)
			if err != nil {
				return nil, err
			}
			e.semCompHits.Add(1)
			return decoded, nil
		}
	} else if edges, ok := e.buf.Get(k); ok {
		return edges, nil
	}
	edges, ok, err := p.take(i, j)
	if err != nil {
		return nil, err
	}
	if !ok {
		// Expected resident at pass start but evicted since (or pipelining
		// is off): fall back to a synchronous load.
		if edges, err = e.loadBlock(i, j); err != nil {
			return nil, err
		}
	}
	e.offerSecondary(k, edges)
	return edges, nil
}

// offerSecondary offers the just-loaded secondary sub-block k to the priority
// buffer. Its priority — a scan of the block's edges — and, under SEM, its
// encoded payload are computed only when they can decide the admission: an
// entry larger than the whole buffer is rejected, and counted, by Put before
// it looks at either.
func (e *Engine) offerSecondary(k buffer.Key, edges []graph.Edge) {
	size := e.layout.Meta.SubBlockBytes(k.I, k.J)
	capacity := e.buf.Capacity()
	switch {
	case size > capacity && (!e.opts.SEM || capacity <= 0):
		// Under SEM the entry is charged its encoded size, known only once
		// encoded; but no payload fits a buffer of no capacity.
		e.buf.Put(k, edges, size, 0)
	case e.opts.SEM:
		payload := e.encodePayload(k.I, k.J, edges)
		if e.buf.PutBytes(k, payload, size, e.offerPriority(edges)) {
			e.semCompBytes.Add(int64(len(payload)))
			e.semDecBytes.Add(size)
		}
	default:
		e.buf.Put(k, edges, size, e.offerPriority(edges))
	}
}

// offerPriority is the active-edge count of edges under the current
// frontier: all of them when every vertex is active.
func (e *Engine) offerPriority(edges []graph.Edge) int64 {
	if e.active.Count() == e.n {
		return int64(len(edges))
	}
	return activeEdgeCount(edges, e.active)
}

// runFCIUFirst executes the first half of a full cross-iteration update
// pass (paper Algorithm 3, lines 1–17): stream every sub-block in
// column-major order, updating iteration t, and exploit the dependency
// structure of the grid to compute iteration t+1 contributions in the same
// pass:
//
//   - sub-block (i, j) with i < j: interval i was applied before column j
//     is processed, so the sources' t-values are final — scatter t+1
//     contributions immediately after the t-scatter;
//   - the diagonal sub-block (j, j) is held in memory until column j is
//     applied, then scatters its t+1 contributions;
//   - sub-blocks with i > j ("secondary") cannot propagate in this pass
//     and are offered to the priority buffer for the second half.
//
// Sub-block reads run ahead of the scatter/apply work on the I/O pipeline.
// The driver then runs runFCIUSecond as the next iteration.
func (e *Engine) runFCIUFirst() error {
	if err := e.readValues(); err != nil {
		return err
	}
	e.semBegin()
	pass := e.newFCIUPass(fciuFirstCells)
	defer e.finishFCIUPass(pass)

	for j := 0; j < e.p; j++ {
		lo, hi := e.layout.Meta.Interval(j)
		var diag []graph.Edge
		diagDeferred := false
		for i := 0; i < e.p; i++ {
			if err := e.checkCtx(); err != nil {
				return err
			}
			if e.sem != nil && !e.sem.rowLive(i) {
				// The t-scatter of every cell in this row is a guaranteed
				// no-op: the active filter excludes all of its edges. Only
				// the cross-iteration scatter can still need the cell.
				switch {
				case i > j:
					// Secondary cells scatter from the active filter only.
					e.semSkip(i, j)
					continue
				case i < j:
					// Interval i is already applied, so newActive∩interval(i)
					// is final: skip when it is empty, otherwise fall through
					// and load for the cross-iteration scatter alone.
					if riLo, riHi := e.layout.Meta.Interval(i); e.newActive.CountRange(riLo, riHi) == 0 {
						e.semSkip(i, j)
						continue
					}
				default:
					// Diagonal: newActive∩interval(j) is final only after
					// applyInterval(j); defer the load decision until then.
					diagDeferred = true
					continue
				}
			}
			if i < j && e.opts.StreamChunkBytes > 0 {
				// Upper-triangle cells need no retention: stream them,
				// applying both the current-iteration update and the
				// cross-iteration propagation per chunk.
				err := e.layout.StreamSubBlock(i, j, e.opts.StreamChunkBytes, func(edges []graph.Edge) error {
					e.scatter(edges, e.valPrev, e.active, e.acc, e.touched, lo, hi)
					e.scatter(edges, e.valCur, e.newActive, e.accNext, e.touchedNext, lo, hi)
					return nil
				})
				if err != nil {
					return err
				}
				continue
			}
			edges, err := e.nextFCIUBlock(pass, i, j)
			if err != nil {
				return err
			}
			if len(edges) == 0 {
				continue
			}
			// Current-iteration update (UserFunction over all edges whose
			// source is active).
			e.scatter(edges, e.valPrev, e.active, e.acc, e.touched, lo, hi)
			switch {
			case i < j:
				// CrossIterUpdate: sources already updated in this
				// iteration propagate their new value to iteration t+1.
				e.scatter(edges, e.valCur, e.newActive, e.accNext, e.touchedNext, lo, hi)
			case i == j:
				diag = edges
			}
		}
		e.applyInterval(j)
		if diag != nil {
			// Diagonal cross-iteration after interval j's own apply
			// (Alg 3 lines 13–16).
			e.scatter(diag, e.valCur, e.newActive, e.accNext, e.touchedNext, lo, hi)
		} else if diagDeferred {
			// Dead-row diagonal: now that interval j is applied its t+1
			// activations are final. Load only if there is something to
			// propagate; this rare load is synchronous (the cell was never
			// enqueued on the pipeline).
			if e.newActive.CountRange(lo, hi) > 0 {
				edges, err := e.loadBlock(j, j)
				if err != nil {
					return err
				}
				e.scatter(edges, e.valCur, e.newActive, e.accNext, e.touchedNext, lo, hi)
			} else {
				e.semSkip(j, j)
			}
		}
	}

	// The paper updates each buffered secondary sub-block's priority after
	// the first iteration processes it; now that the full activation set
	// for t+1 is known, refresh every resident's priority. Large residents
	// are sampled rather than rescanned; compressed residents are estimated
	// from their row's active fraction instead of being decoded. Either
	// estimate is clamped to ≥1 while the block bitmap says the block is
	// live, so sampling can never demote a hot block to dead.
	for _, k := range e.buf.Keys() {
		edges, payload, ok := e.buf.PeekEntry(k)
		if !ok {
			continue
		}
		var est int64
		if payload != nil {
			est = e.payloadPriority(k, e.newActive)
		} else {
			est = clampedActiveEdgeEstimate(edges, e.newActive, &e.layout.Meta, k.I)
		}
		e.buf.UpdatePriority(k, est)
	}
	return e.writeValues()
}

// runFCIUSecond executes the second half of an FCIU pass (Algorithm 3,
// lines 18–26): iteration t+1 already holds the staged contributions from
// every sub-block with i <= j, so only the secondary sub-blocks (i > j)
// are read — from the buffer when resident — before each interval is
// applied.
func (e *Engine) runFCIUSecond() error {
	if err := e.readValues(); err != nil {
		return err
	}
	e.semBegin()
	pass := e.newFCIUPass(fciuSecondCells)
	defer e.finishFCIUPass(pass)

	for j := 0; j < e.p; j++ {
		lo, hi := e.layout.Meta.Interval(j)
		for i := j + 1; i < e.p; i++ {
			if err := e.checkCtx(); err != nil {
				return err
			}
			if e.sem != nil && !e.sem.rowLive(i) {
				// Secondary cells scatter only from the active filter; a
				// dead row contributes nothing.
				e.semSkip(i, j)
				continue
			}
			edges, err := e.nextFCIUBlock(pass, i, j)
			if err != nil {
				return err
			}
			e.scatter(edges, e.valPrev, e.active, e.acc, e.touched, lo, hi)
		}
		e.applyInterval(j)
	}
	return e.writeValues()
}

// runFullSingle executes one plain full-I/O iteration with no
// cross-iteration computation: stream every sub-block, scatter, apply per
// interval. Used when cross-iteration is disabled (ablation b1) and when a
// single iteration remains in the budget. Reads run ahead on the I/O
// pipeline; the priority buffer is not involved.
func (e *Engine) runFullSingle() error {
	if err := e.readValues(); err != nil {
		return err
	}
	e.semBegin()
	pass := e.newFCIUPass(fullCells)
	defer e.finishFCIUPass(pass)

	for j := 0; j < e.p; j++ {
		lo, hi := e.layout.Meta.Interval(j)
		for i := 0; i < e.p; i++ {
			if err := e.checkCtx(); err != nil {
				return err
			}
			if e.sem != nil && !e.sem.rowLive(i) {
				// No cross-iteration work in this pass: a dead row's cells
				// are skipped outright, streamed or not.
				e.semSkip(i, j)
				continue
			}
			if e.opts.StreamChunkBytes > 0 {
				err := e.layout.StreamSubBlock(i, j, e.opts.StreamChunkBytes, func(edges []graph.Edge) error {
					e.scatter(edges, e.valPrev, e.active, e.acc, e.touched, lo, hi)
					return nil
				})
				if err != nil {
					return err
				}
				continue
			}
			edges, ok, err := pass.take(i, j)
			if err != nil {
				return err
			}
			if !ok {
				if edges, err = e.loadBlock(i, j); err != nil {
					return err
				}
			}
			e.scatter(edges, e.valPrev, e.active, e.acc, e.touched, lo, hi)
		}
		e.applyInterval(j)
	}
	return e.writeValues()
}
