package core

import (
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/pipeline"
	"github.com/graphsd/graphsd/internal/storage"
)

// runSCIU executes one iteration under the selective cross-iteration
// update model (paper Algorithm 2). Under the on-demand I/O model it loads
// only the edges of active vertices — located through the per-sub-block
// vertex indexes, so runs of consecutive active vertices become sequential
// reads — applies the user update, and then performs cross-iteration value
// computation: every vertex that was (a) re-activated by this iteration
// and (b) already had its edges loaded scatters its next-iteration
// contribution immediately into the staged accumulator, and is removed
// from the next frontier so its edges are not read again.
//
// Selective loads run ahead of the scatter work on the block stream; each
// request's byte size is the sub-block's active-run total, so the window
// budget meters what is actually read.
func (e *Engine) runSCIU() error {
	cross := !e.opts.DisableCrossIteration
	recBytes := int64(e.layout.Meta.EdgeRecordBytes())

	// Build the selective-load sequence over the rows that hold an active
	// vertex. Besides the values (semBegin, semEnd), the pass is charged the
	// index those rows' runs are found through — the paper's C_r charges the
	// whole index and value array (2|V|·N/B_sr + |V|·N/B_sw).
	e.semBegin()
	var reqs []pipeline.Request
	var indexed int64
	for i := 0; i < e.p; i++ {
		lo, hi := e.layout.Meta.Interval(i)
		if !e.rowLive[i] {
			continue
		}
		indexed += int64(hi - lo)
		for j := 0; j < e.p; j++ {
			if e.layout.Meta.SubBlockEdges(i, j) == 0 {
				continue
			}
			idx, err := e.src.index(i, j)
			if err != nil {
				return err
			}
			var n int64
			e.active.ForEachRange(lo, hi, func(v int) bool {
				n += idx.Rec[v-lo+1] - idx.Rec[v-lo]
				return true
			})
			// Bytes meters the prefetch window: decoded size, like the
			// FCIU requests, since the window bounds memory residency.
			reqs = append(reqs, pipeline.Request{I: i, J: j, Bytes: n * recBytes})
		}
	}
	if indexed > 0 {
		e.layout.Dev.Charge(storage.SeqRead, indexed*graph.IndexEntryBytes)
	}
	// The frontier is not mutated until the apply phase, so the stream's
	// fetch workers may read it.
	st := openBlockStream(e.ctx, e.opts, &e.plStats, reqs, false, func(i, j int) (selectiveBlock, error) {
		return e.src.selective(i, j, e.active, selectiveBlock{})
	})
	defer st.close()

	// Scatter: sub-block by sub-block in request order. The on-demand
	// working set is assumed to fit memory (the paper's assumption), so every
	// block taken stays for the cross-iteration scatter.
	var kept []selectiveBlock
	for _, req := range reqs {
		blk, err := st.take(req.I, req.J)
		if err != nil {
			return err
		}
		if cross {
			kept = append(kept, blk)
		}
		jLo, jHi := e.layout.Meta.Interval(req.J)
		e.scatter(blk.edges, e.from(e.valPrev, e.termPrev, e.active, req.I), e.acc, e.touched, jLo, jHi)
	}

	for j := 0; j < e.p; j++ {
		e.applyBSP(j, false)
	}

	if cross {
		// Cross-iteration value computation (Alg 2 lines 15–23): vertices
		// re-activated while their edges are memory-resident propagate
		// their just-computed value to iteration t+1 now, from the blocks
		// already taken, each scattered through the t+1 frontier. A
		// destination's in-edges from row i all sit in one block of column
		// j, and rows ascend with vertex id, so in request order every
		// destination still sees its sources in vertex order.
		for i, live := range e.rowLive { // the kept blocks' sources are active
			if live {
				lo, hi := e.layout.Meta.Interval(i)
				e.fillTerms(e.termCur, e.valCur, lo, hi)
			}
		}
		for n, blk := range kept {
			reactivated := false
			for _, run := range blk.runs {
				if e.newActive.Contains(int(run.v)) {
					e.prescattered.Activate(int(run.v))
					reactivated = true
				}
			}
			if reactivated { // else the filter passes none of its edges
				jLo, jHi := e.layout.Meta.Interval(reqs[n].J)
				e.scatter(blk.edges, e.from(e.valCur, e.termCur, e.newActive, reqs[n].I), e.accNext, e.touchedNext, jLo, jHi)
			}
		}
	}
	e.semEnd()
	return nil
}
