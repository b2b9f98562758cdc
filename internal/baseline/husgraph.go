package baseline

import (
	"fmt"
	"time"

	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/iosched"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// RunHUSGraph executes prog over a HUS-Graph layout (partition.BuildHUSGraph).
//
// HUS-Graph's hybrid update strategy keeps two sorted copies of the edges:
// source-major row blocks with per-vertex indexes for the on-demand path,
// and destination-major column blocks for the streaming path. Each
// iteration it evaluates the same I/O cost model as GraphSD and picks the
// cheaper access path — but it never computes future-iteration values, so
// every iteration pays its own full I/O (the gap Figure 5/7 measures).
func RunHUSGraph(layout *partition.Layout, prog core.Program, opts Options) (*core.Result, error) {
	if layout.Meta.System != "husgraph" {
		return nil, fmt.Errorf("baseline: layout built for %q, want husgraph (use partition.BuildHUSGraph)", layout.Meta.System)
	}
	if prog.Weighted() && !layout.Meta.Weighted {
		return nil, fmt.Errorf("baseline: program %s needs weights but layout is unweighted", prog.Name())
	}
	start := time.Now()
	dev := layout.Dev
	ioBase := dev.Stats()

	degrees, err := layout.LoadDegrees()
	if err != nil {
		return nil, err
	}
	// Row blocks keep each vertex's whole edge list contiguous, so an
	// active run costs a single positioning seek (P=1 in the cost model).
	sched, err := iosched.New(iosched.Config{
		Profile:         dev.Profile(),
		NumVertices:     layout.Meta.NumVertices,
		NumEdges:        layout.Meta.NumEdges,
		EdgeRecordBytes: layout.Meta.EdgeRecordBytes(),
		P:               1,
	})
	if err != nil {
		return nil, err
	}

	s := newBSPState(layout.Meta.NumVertices, prog, degrees)
	h := newHUSRun(layout, s)
	maxIter := s.maxIterations(opts)
	iter := 0
	for ; iter < maxIter; iter++ {
		if s.active.Empty() {
			break
		}
		if err := h.iterate(sched.Decide(iter, s.active, degrees).Model); err != nil {
			return nil, err
		}
		s.advance()
	}

	return &core.Result{
		Algorithm:         prog.Name(),
		Iterations:        iter,
		Converged:         s.active.Empty(),
		Outputs:           s.outputs(),
		WallTime:          time.Since(start),
		ComputeTime:       s.computeTime,
		IO:                dev.Stats().Sub(ioBase),
		Decisions:         append([]iosched.Decision(nil), sched.History()...),
		SchedulerOverhead: sched.TotalOverhead(),
	}, nil
}

// husRun is what a HUS-Graph run keeps from one iteration to the next.
type husRun struct {
	layout *partition.Layout
	s      *bspState

	// rowIndex caches the row indexes, which are immutable, once loaded.
	rowIndex map[int]*partition.Index
	// Column streaming reuses one decode buffer pair across blocks and
	// iterations instead of allocating per LoadCol call.
	colEdges []graph.Edge
	colBuf   []byte

	// live[i] says source interval i holds an active vertex of the iteration in
	// progress; applied[j] that its apply phase visited interval j. They are
	// the iteration's value traffic, as a GraphSD pass's (DESIGN.md §11).
	live, applied []bool
}

func newHUSRun(layout *partition.Layout, s *bspState) *husRun {
	return &husRun{
		layout:   layout,
		s:        s,
		rowIndex: make(map[int]*partition.Index),
		live:     make([]bool, layout.Meta.P),
		applied:  make([]bool, layout.Meta.P),
	}
}

// iterate runs one iteration under model m. HUS-Graph is active-aware, so it
// pays for the values it touches as GraphSD does: it reads the live rows'
// values and those of every interval it applies, and writes the latter back.
func (h *husRun) iterate(m iosched.Model) error {
	for i := range h.live {
		lo, hi := h.layout.Meta.Interval(i)
		h.live[i] = h.s.active.CountRange(lo, hi) > 0
	}
	h.layout.ChargeValues(storage.SeqRead, func(i int) bool { return h.live[i] })
	var err error
	if m == iosched.OnDemandIO {
		err = h.onDemand()
	} else {
		err = h.full()
	}
	if err != nil {
		return err
	}
	h.layout.ChargeValues(storage.SeqRead, func(i int) bool { return h.applied[i] && !h.live[i] })
	h.layout.ChargeValues(storage.SeqWrite, func(i int) bool { return h.applied[i] })
	return nil
}

// onDemand selectively loads each active vertex's contiguous edge run from
// its row block via the row index, then applies every interval.
func (h *husRun) onDemand() error {
	layout, s := h.layout, h.s
	// Modelled index consult, as in C_r.
	layout.Dev.Charge(storage.SeqRead, int64(s.n)*graph.IndexEntryBytes)

	var readBuf []byte
	for i := 0; i < layout.Meta.P; i++ {
		if !h.live[i] {
			continue
		}
		lo, hi := layout.Meta.Interval(i)
		idx, ok := h.rowIndex[i]
		if !ok {
			var err error
			idx, err = layout.LoadRowIndex(i)
			if err != nil {
				return err
			}
			h.rowIndex[i] = idx
		}
		r, err := layout.OpenRow(i)
		if err != nil {
			return err
		}
		if r == nil {
			continue
		}
		var batch []graph.Edge
		var loopErr error
		s.active.ForEachRange(lo, hi, func(v int) bool {
			var edges []graph.Edge
			edges, readBuf, loopErr = layout.ReadVertexEdges(r, idx, i, graph.VertexID(v), readBuf)
			batch = append(batch, edges...)
			return loopErr == nil
		})
		closeErr := r.Close()
		if loopErr != nil {
			return fmt.Errorf("baseline: husgraph row %d: %w", i, loopErr)
		}
		if closeErr != nil {
			return closeErr
		}
		s.scatter(batch, s.valPrev, s.active, s.acc, s.touched)
	}
	for j := range h.applied {
		lo, hi := layout.Meta.Interval(j)
		h.applied[j] = s.applyRange(lo, hi) > 0
	}
	return nil
}

// full streams the destination-major column blocks, applying each interval
// as soon as its column has been consumed.
func (h *husRun) full() error {
	layout, s := h.layout, h.s
	for j := 0; j < layout.Meta.P; j++ {
		var err error
		h.colEdges, h.colBuf, err = layout.LoadColInto(j, h.colEdges, h.colBuf)
		if err != nil {
			return err
		}
		s.scatter(h.colEdges, s.valPrev, s.active, s.acc, s.touched)
		lo, hi := layout.Meta.Interval(j)
		h.applied[j] = s.applyRange(lo, hi) > 0
	}
	return nil
}
