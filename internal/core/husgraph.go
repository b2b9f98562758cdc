package core

import (
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/iosched"
	"github.com/graphsd/graphsd/internal/pipeline"
	"github.com/graphsd/graphsd/internal/storage"
)

// husSchedule runs a HUS-Graph layout (partition.BuildHUSGraph), the first of
// the paper's comparison systems (Xu et al., TPDS '20; not open source, so
// this is its published behaviour as the GraphSD paper summarises it).
//
// HUS-Graph's hybrid update strategy keeps two sorted copies of the edges:
// source-major row blocks with per-vertex indexes for the on-demand path, and
// destination-major column blocks for the streaming path. Each iteration the
// scheduler prices both under a P=1 cost model (NewEngine) and the cheaper
// path runs — but HUS-Graph never computes future-iteration values, so every
// iteration pays its own full I/O: the gap Figures 5 and 7 measure. It is
// active-aware, so it pays the values it touches by GraphSD's rule (semBegin,
// semEnd). It never calibrates: measured is a no-op.
type husSchedule struct {
	bspSchedule
}

func (h *husSchedule) step(iter int, st *IterStat) error {
	e := h.e
	e.promote()
	model := e.decide(iter)
	e.semBegin()
	var err error
	if model == iosched.OnDemandIO {
		st.Path = "husgraph-on-demand"
		err = h.onDemand()
	} else {
		st.Path = "husgraph-full"
		err = h.full()
	}
	if err != nil {
		return err
	}
	e.semEnd()
	e.advance()
	return nil
}

func (h *husSchedule) measured(*IterStat) {}

// onDemand reads each live row's active edge runs through the row index — the
// block source's selective read of row i, keyed (i, -1), whose handle keeps the
// index for the run — scatters them as one batch, then applies every interval.
func (h *husSchedule) onDemand() error {
	e := h.e
	// Modelled index consult, as in C_r: the whole index.
	e.layout.Dev.Charge(storage.SeqRead, int64(e.n)*graph.IndexEntryBytes)
	var blk selectiveBlock // one row's runs, dead once scattered
	for i := 0; i < e.p; i++ {
		if !e.rowLive[i] {
			continue
		}
		if err := e.checkCtx(); err != nil {
			return err
		}
		var err error
		if blk, err = e.src.selective(i, -1, e.active, blk); err != nil {
			return err
		}
		e.scatter(blk.edges, e.from(e.valPrev, e.termPrev, e.active, -1), e.acc, e.touched, 0, e.n)
	}
	for j := 0; j < e.p; j++ {
		e.applyBSP(j)
	}
	return nil
}

// full streams the destination-major column blocks, keyed (-1, j), on a block
// stream — each decoded into a pooled slice, run ahead under the prefetch
// window — applying each interval as soon as its column has been scattered.
func (h *husSchedule) full() error {
	e := h.e
	reqs := make([]pipeline.Request, e.p)
	for j := range reqs {
		reqs[j] = pipeline.Request{I: -1, J: j, Bytes: e.layout.ColumnBytes(j)}
	}
	st := openBlockStream(e.ctx, e.opts, &e.plStats, reqs, false, func(i, j int) (block, error) {
		return e.src.pooled(func(dst []graph.Edge) ([]graph.Edge, error) { return e.src.read(i, j, dst) })
	})
	defer st.close()
	for j := 0; j < e.p; j++ {
		blk, err := st.take(-1, j)
		if err != nil {
			return err
		}
		lo, hi := e.layout.Meta.Interval(j)
		e.scatter(blk.edges, e.from(e.valPrev, e.termPrev, e.active, -1), e.acc, e.touched, lo, hi)
		e.applyBSP(j)
		e.src.release(blk)
	}
	return nil
}
