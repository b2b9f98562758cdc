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
	maxIter := s.maxIterations(opts)

	// Row indexes are immutable; cache them once loaded.
	rowIndex := make(map[int]*partition.Index)
	// Column streaming reuses one decode buffer pair across blocks and
	// iterations instead of allocating per LoadCol call.
	var colEdges []graph.Edge
	var colBuf []byte

	iter := 0
	for ; iter < maxIter; iter++ {
		if s.active.Empty() {
			break
		}
		dec := sched.Decide(iter, s.active, degrees)
		if dec.Model == iosched.OnDemandIO {
			if err := husOnDemand(layout, s, rowIndex); err != nil {
				return nil, err
			}
		} else {
			if colEdges, colBuf, err = husFull(layout, s, colEdges, colBuf); err != nil {
				return nil, err
			}
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

// husOnDemand selectively loads each active vertex's contiguous edge run
// from its row block via the row index.
func husOnDemand(layout *partition.Layout, s *bspState, rowIndex map[int]*partition.Index) error {
	dev := layout.Dev
	// Modelled index consult + vertex value read/write, as in C_r.
	dev.Charge(storage.SeqRead, int64(s.n)*graph.IndexEntryBytes)
	dev.Charge(storage.SeqRead, int64(s.n)*graph.VertexValueBytes)
	defer dev.Charge(storage.SeqWrite, int64(s.n)*graph.VertexValueBytes)

	var readBuf []byte
	for i := 0; i < layout.Meta.P; i++ {
		lo, hi := layout.Meta.Interval(i)
		if s.active.CountRange(lo, hi) == 0 {
			continue
		}
		idx, ok := rowIndex[i]
		if !ok {
			var err error
			idx, err = layout.LoadRowIndex(i)
			if err != nil {
				return err
			}
			rowIndex[i] = idx
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
	s.applyAll()
	return nil
}

// husFull streams the destination-major column blocks, applying each
// interval as soon as its column has been consumed. The decode buffers are
// threaded through and returned so callers reuse them across iterations.
func husFull(layout *partition.Layout, s *bspState, edges []graph.Edge, buf []byte) ([]graph.Edge, []byte, error) {
	dev := layout.Dev
	dev.Charge(storage.SeqRead, int64(s.n)*graph.VertexValueBytes)
	defer dev.Charge(storage.SeqWrite, int64(s.n)*graph.VertexValueBytes)

	for j := 0; j < layout.Meta.P; j++ {
		var err error
		edges, buf, err = layout.LoadColInto(j, edges, buf)
		if err != nil {
			return edges, buf, err
		}
		s.scatter(edges, s.valPrev, s.active, s.acc, s.touched)
		lo, hi := layout.Meta.Interval(j)
		s.applyRange(lo, hi)
	}
	return edges, buf, nil
}
