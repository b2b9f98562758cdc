package core

import (
	"fmt"

	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/iosched"
	"github.com/graphsd/graphsd/internal/partition"
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

	// rowIndex caches the row indexes, which are immutable, once loaded.
	rowIndex []*partition.Index
	// The on-demand path gathers a row's active edges into batch through
	// readBuf; column streaming decodes into col through colBuf. All four are
	// reused across rows, columns and iterations.
	batch, col      []graph.Edge
	readBuf, colBuf []byte
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

// onDemand reads each active vertex's contiguous edge run from its row block
// through the row index, scatters each live row's runs as one batch, then
// applies every interval.
func (h *husSchedule) onDemand() error {
	e := h.e
	// Modelled index consult, as in C_r: the whole index.
	e.layout.Dev.Charge(storage.SeqRead, int64(e.n)*graph.IndexEntryBytes)
	for i := 0; i < e.p; i++ {
		if !e.rowLive[i] {
			continue
		}
		if h.rowIndex[i] == nil {
			idx, err := e.layout.LoadRowIndex(i)
			if err != nil {
				return err
			}
			h.rowIndex[i] = idx
		}
		r, err := e.layout.OpenRow(i)
		if err != nil {
			return err
		}
		if r == nil {
			continue
		}
		batch := h.batch[:0]
		lo, hi := e.layout.Meta.Interval(i)
		e.active.ForEachRange(lo, hi, func(v int) bool {
			var edges []graph.Edge
			edges, h.readBuf, err = e.layout.ReadVertexEdges(r, h.rowIndex[i], i, graph.VertexID(v), h.readBuf)
			batch = append(batch, edges...)
			return err == nil
		})
		h.batch = batch
		if closeErr := r.Close(); err == nil {
			err = closeErr
		}
		if err != nil {
			return fmt.Errorf("core: husgraph row %d: %w", i, err)
		}
		e.scatter(batch, e.from(e.valPrev, e.termPrev, e.active, -1), e.acc, e.touched, 0, e.n)
	}
	for j := 0; j < e.p; j++ {
		e.applyBSP(j)
	}
	return nil
}

// full streams the destination-major column blocks, applying each interval as
// soon as its column has been scattered.
func (h *husSchedule) full() error {
	e := h.e
	for j := 0; j < e.p; j++ {
		var err error
		if h.col, h.colBuf, err = e.layout.LoadColInto(j, h.col, h.colBuf); err != nil {
			return err
		}
		lo, hi := e.layout.Meta.Interval(j)
		e.scatter(h.col, e.from(e.valPrev, e.termPrev, e.active, -1), e.acc, e.touched, lo, hi)
		e.applyBSP(j)
	}
	return nil
}
