package baseline

import (
	"fmt"
	"time"

	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// RunLumos executes prog over a Lumos layout (partition.BuildLumos).
//
// Lumos performs dependency-driven out-of-order execution: one physical
// pass over the grid computes iteration t for every vertex and
// proactively propagates iteration t+1 values along every edge whose
// source interval is updated before its destination interval (the upper
// triangle plus the diagonal of the grid). The following pass therefore
// reads only the remaining lower-triangle cells. Unlike GraphSD, Lumos
// is not state-aware: it streams every cell of the due triangle every
// pass, regardless of how few vertices are active, and it does not buffer
// the twice-read cells — which is exactly the I/O gap Figures 5 and 7
// measure.
func RunLumos(layout *partition.Layout, prog core.Program, opts Options) (*core.Result, error) {
	if layout.Meta.System != "lumos" {
		return nil, fmt.Errorf("baseline: layout built for %q, want lumos (use partition.BuildLumos)", layout.Meta.System)
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
	s := newBSPState(layout.Meta.NumVertices, prog, degrees)
	maxIter := s.maxIterations(opts)
	p := layout.Meta.P

	// Not state-aware, Lumos touches every interval's values on every pass.
	every := func(int) bool { return true }

	// Off-diagonal cells decode into one reused buffer pair. The diagonal
	// gets its own pair because its edges stay live past the inner loop
	// (scattered again after applyRange) while off-diagonal loads keep
	// reusing the shared buffer.
	var edges, diag []graph.Edge
	var buf, diagBuf []byte

	iter := 0
	secondaryPending := false
	for iter < maxIter {
		if !secondaryPending && s.active.Empty() && s.touchedNext.Empty() {
			break
		}
		s.promoteStaged()

		if secondaryPending || iter+1 >= maxIter {
			// The second half of an out-of-order pass, where only the
			// lower-triangle cells remain, or — with a single iteration left in
			// the budget — a plain full pass: stream the due cells of each column.
			layout.ChargeValues(storage.SeqRead, every)
			for j := 0; j < p; j++ {
				first := 0
				if secondaryPending {
					first = j + 1
				}
				for i := first; i < p; i++ {
					edges, buf, err = layout.LoadSubBlockInto(i, j, edges, buf)
					if err != nil {
						return nil, err
					}
					s.scatter(edges, s.valPrev, s.active, s.acc, s.touched)
				}
				lo, hi := layout.Meta.Interval(j)
				s.applyRange(lo, hi)
			}
			layout.ChargeValues(storage.SeqWrite, every)
			secondaryPending = false
		} else {
			// Full out-of-order pass: iteration t plus staged t+1 values.
			layout.ChargeValues(storage.SeqRead, every)
			for j := 0; j < p; j++ {
				var diagEdges []graph.Edge
				for i := 0; i < p; i++ {
					cell := &edges
					cbuf := &buf
					if i == j {
						cell, cbuf = &diag, &diagBuf
					}
					*cell, *cbuf, err = layout.LoadSubBlockInto(i, j, *cell, *cbuf)
					if err != nil {
						return nil, err
					}
					if len(*cell) == 0 {
						continue
					}
					s.scatter(*cell, s.valPrev, s.active, s.acc, s.touched)
					switch {
					case i < j:
						s.scatter(*cell, s.valCur, s.newActive, s.accNext, s.touchedNext)
					case i == j:
						diagEdges = *cell
					}
				}
				lo, hi := layout.Meta.Interval(j)
				s.applyRange(lo, hi)
				if diagEdges != nil {
					s.scatter(diagEdges, s.valCur, s.newActive, s.accNext, s.touchedNext)
				}
			}
			layout.ChargeValues(storage.SeqWrite, every)
			secondaryPending = !s.newActive.Empty() || !s.touchedNext.Empty()
		}

		s.advance()
		iter++
	}

	return &core.Result{
		Algorithm:   prog.Name(),
		Iterations:  iter,
		Converged:   s.active.Empty() && s.touchedNext.Empty() && !secondaryPending,
		Outputs:     s.outputs(),
		WallTime:    time.Since(start),
		ComputeTime: s.computeTime,
		IO:          dev.Stats().Sub(ioBase),
	}, nil
}
