package core

import (
	"fmt"
	"time"

	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/graph"
)

// passCells names the grid cells a full-model pass reads from disk, which is
// exactly the set the pass's block stream prefetches, and with them the
// pass's shape across iterations.
type passCells int

const (
	// fciuFirstCells: every cell, column-major, through the priority buffer;
	// the cells on and above the diagonal also scatter iteration t+1.
	fciuFirstCells passCells = iota
	// fciuSecondCells: secondary cells (i > j) only, through the buffer.
	fciuSecondCells
	// fullCells: every cell; the priority buffer is not consulted.
	fullCells
)

// firstRow is the first source interval the pass visits in column j.
func (c passCells) firstRow(j int) int {
	if c == fciuSecondCells {
		return j + 1
	}
	return 0
}

// crossIter reports whether the pass computes iteration t+1 contributions
// from the cells on and above the diagonal as it goes (see runPass).
func (c passCells) crossIter() bool { return c == fciuFirstCells }

// buffered reports whether the pass serves its cells through the priority
// buffer: every cell of an FCIU pass, ranked by passPriority.
func (c passCells) buffered() bool { return c != fullCells }

// openPass opens the pass's fetch (openFetch): its non-empty cells in
// consumption order, minus cells of rows the frontier proves dead (semBegin),
// which never enqueue a read at all. (A dead-row cell on or above the diagonal
// that the cross-iteration phase turns out to need is loaded by the consumer,
// from the buffer when resident, else synchronously.)
func (e *Engine) openPass(cells passCells) *blockStream[block] {
	var live []buffer.Key
	for j := 0; j < e.p; j++ {
		for i := cells.firstRow(j); i < e.p; i++ {
			if e.layout.Meta.SubBlockEdges(i, j) > 0 && e.rowLive[i] {
				live = append(live, buffer.Key{I: i, J: j})
			}
		}
	}
	return e.openFetch(e.active.Count(), e.n, sparseViewDensity, cells.buffered(), live)
}

// passBlock returns sub-block (i, j) for a full-model pass. Every non-empty
// sub-block of an FCIU pass goes through the priority buffer (takeBuffered),
// ranked by passRank.
func (e *Engine) passBlock(st *blockStream[block], cells passCells, i, j int) (block, error) {
	if !cells.buffered() {
		return st.take(i, j)
	}
	if e.layout.Meta.SubBlockEdges(i, j) == 0 {
		return block{}, nil
	}
	k := buffer.Key{I: i, J: j}
	return e.takeBuffered(st, k, e.passRank(k))
}

// scatterBlock is scatter over a pass block. From a run view it first decodes
// the runs of the sources in the filter — this scatter's own filter, so each
// of a block's scatters sees exactly the edges the kernel's filter test would
// have kept of the whole block, in the same order — into the engine's scratch
// slice; that is decode time, not compute.
func (e *Engine) scatterBlock(blk block, src scatterArgs, acc []float64, touched *bitset.ActiveSet, dstLo, dstHi int) error {
	edges := blk.edges
	if rb := blk.runs; rb != nil {
		t0 := time.Now()
		var err error
		e.runEdges, err = rb.view.AppendActive(e.runEdges[:0], src.filter)
		e.layout.AddDecodeTime(time.Since(t0))
		if err != nil {
			return fmt.Errorf("core: decoding sub-block (%d,%d) [delta]: %w", rb.i, rb.j, err)
		}
		edges = e.runEdges
	}
	e.scatter(edges, src, acc, touched, dstLo, dstHi)
	return nil
}

// passRank ranks FCIU cell k for admission to the per-run buffer: passPriority
// over its active-edge count under the current frontier, counted over decoded
// edges (all of them when every vertex is active) and estimated for a payload
// (payloadPriority).
func (e *Engine) passRank(k buffer.Key) func([]graph.Edge) int64 {
	return func(edges []graph.Edge) int64 {
		switch {
		case e.payloads:
			return passPriority(k, e.payloadPriority(k, e.active))
		case e.active.Count() == e.n:
			return passPriority(k, int64(len(edges)))
		}
		return passPriority(k, activeEdgeCount(edges, e.active))
	}
}

// runPass executes one full-model pass: read the pass's cells column by
// column, scatter iteration t from the active frontier, apply each interval.
//
//   - fciuFirstCells is the first half of a full cross-iteration update pass
//     (paper Algorithm 3, lines 1–17): every sub-block, and — crossIter — the
//     grid's dependency structure is used to compute iteration t+1
//     contributions in the same pass. Sub-block (i, j) with i < j: interval i
//     was applied before column j is processed, so the sources' t-values are
//     final and it scatters t+1 right after its t-scatter. The diagonal (j, j)
//     is held until column j is applied, then scatters t+1. Sub-blocks with
//     i > j ("secondary") cannot propagate in this pass and are read again by
//     the second half, which the schedule runs next. Every cell is offered to
//     the priority buffer, and a secondary outranks every other (passPriority).
//   - fciuSecondCells is that second half (lines 18–26): iteration t+1 already
//     holds the staged contributions from every sub-block with i <= j, so only
//     the secondary sub-blocks are read — from the buffer when resident.
//   - fullCells is one plain full-I/O iteration, used when cross-iteration is
//     disabled (ablation b1) and when a single iteration remains in the
//     budget.
//
// Sub-block reads run ahead of the scatter/apply work on the block stream.
func (e *Engine) runPass(cells passCells) error {
	e.semBegin()
	st := e.openPass(cells)
	defer e.endFetch(st)
	cross := cells.crossIter()
	// crossScatter is CrossIterUpdate: sources of interval i already updated
	// in this iteration propagate their new value to iteration t+1.
	crossScatter := func(blk block, i, lo, hi int) error {
		return e.scatterBlock(blk, e.from(e.valCur, e.termCur, e.newActive, i), e.accNext, e.touchedNext, lo, hi)
	}

	for j := 0; j < e.p; j++ {
		lo, hi := e.layout.Meta.Interval(j)
		var diag block
		diagDeferred := false
		for i := cells.firstRow(j); i < e.p; i++ {
			if err := e.checkCtx(); err != nil {
				return err
			}
			if !e.rowLive[i] {
				// The t-scatter of every cell in this row is a guaranteed
				// no-op: the active filter excludes all of its edges. Only a
				// cross-iteration scatter can still need the cell.
				if cross && i == j {
					// newActive∩interval(j) is final only after interval j is
					// applied; defer the load decision until then.
					diagDeferred = true
					continue
				}
				// Above the diagonal interval i is already applied, so
				// newActive∩interval(i) is final: load for the cross-iteration
				// scatter alone when it is non-empty.
				if !cross || i > j || e.newActive.CountRange(e.layout.Meta.Interval(i)) == 0 {
					e.semSkip(cells, i, j)
					continue
				}
			}
			blk, err := e.passBlock(st, cells, i, j)
			if err != nil {
				return err
			}
			if blk.empty() {
				continue
			}
			// Current-iteration update (UserFunction over all edges whose
			// source is active).
			if err := e.scatterBlock(blk, e.from(e.valPrev, e.termPrev, e.active, i), e.acc, e.touched, lo, hi); err != nil {
				return err
			}
			if cross && i == j {
				diag = blk
				continue
			}
			if cross && i < j {
				if err := crossScatter(blk, i, lo, hi); err != nil {
					return err
				}
			}
			e.src.release(blk)
		}
		e.applyBSP(j)
		if cross {
			e.fillTerms(e.termCur, e.valCur, lo, hi) // for row j's cross scatters
		}
		if diagDeferred {
			// Dead-row diagonal: now that interval j is applied its t+1
			// activations are final. Load only if there is something to
			// propagate; the cell was left off the stream's list, so this
			// rare load is served by the buffer or is synchronous.
			if e.newActive.CountRange(lo, hi) == 0 {
				e.semSkip(cells, j, j)
			} else {
				var err error
				if diag, err = e.passBlock(st, cells, j, j); err != nil {
					return err
				}
			}
		}
		if !diag.empty() {
			// Diagonal cross-iteration after interval j's own apply
			// (Alg 3 lines 13–16).
			if err := crossScatter(diag, j, lo, hi); err != nil {
				return err
			}
			e.src.release(diag)
		}
	}

	if cross {
		// The paper updates each buffered secondary sub-block's priority after
		// the first iteration processes it; now that the full activation set
		// for t+1 is known, refresh every resident's priority. Large residents
		// are sampled rather than rescanned; payload residents are estimated
		// from their row's active fraction instead of being decoded. Either
		// estimate is clamped to ≥1 while the block's row holds an active vertex,
		// so sampling can never demote a hot block to dead.
		e.buf.Reprioritize(func(k buffer.Key, blk buffer.Block) int64 {
			if blk.Payload != nil {
				return passPriority(k, e.payloadPriority(k, e.newActive))
			}
			return passPriority(k, clampedActiveEdgeEstimate(blk.Edges, e.newActive, &e.layout.Meta, k.I))
		})
	}
	e.termsAhead = cross // every interval's terms were filled as it was applied
	e.semEnd()
	return nil
}
