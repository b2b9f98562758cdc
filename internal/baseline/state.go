// Package baseline implements the comparison systems of the paper's
// evaluation as engines over the same vertex-program interface as GraphSD:
//
//   - HUS-Graph (Xu et al., TPDS '20): a hybrid update strategy that
//     adaptively switches between on-demand and full I/O based on the
//     active-vertex count, but performs no cross-iteration computation.
//   - Lumos (Vora, ATC '19): dependency-driven out-of-order execution that
//     propagates future-iteration values in the same pass, but always
//     streams the whole graph (no active-vertex awareness, no buffering).
//
// Neither HUS-Graph nor Lumos is open source; these engines implement the
// published behaviour as summarized in the GraphSD paper (Table 1, §5.1)
// over this repository's storage substrate, so that all systems differ
// only in their I/O strategy (see DESIGN.md §2). All engines are
// BSP-equivalent: they compute exactly what core.RunReference computes.
package baseline

import (
	"time"

	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/graph"
)

// Options configures a baseline run.
type Options struct {
	// MaxIterations overrides the program's bound when positive.
	MaxIterations int
}

// bspState is the shared synchronous-iteration machinery of the baseline
// engines: double-buffered vertex values, merge accumulators, active sets,
// and (for Lumos) the staged next-iteration accumulators.
type bspState struct {
	n       int
	prog    core.Program
	degrees []uint32

	valPrev, valCur []float64
	aux             []float64
	acc, accNext    []float64
	touched         *bitset.ActiveSet
	touchedNext     *bitset.ActiveSet
	active          *bitset.ActiveSet
	newActive       *bitset.ActiveSet

	computeTime time.Duration
}

func newBSPState(n int, prog core.Program, degrees []uint32) *bspState {
	s := &bspState{
		n:           n,
		prog:        prog,
		degrees:     degrees,
		valPrev:     make([]float64, n),
		valCur:      make([]float64, n),
		acc:         make([]float64, n),
		accNext:     make([]float64, n),
		touched:     bitset.NewActiveSet(n),
		touchedNext: bitset.NewActiveSet(n),
		active:      bitset.NewActiveSet(n),
		newActive:   bitset.NewActiveSet(n),
	}
	if prog.HasAux() {
		s.aux = make([]float64, n)
	}
	id := prog.Identity()
	for v := 0; v < n; v++ {
		s.acc[v] = id
		s.accNext[v] = id
	}
	prog.Init(n, s.valPrev, s.aux, s.active)
	copy(s.valCur, s.valPrev)
	return s
}

// scatter merges contributions of edges with sources in filter, reading
// source values from vals, into the given accumulator and touched set.
func (s *bspState) scatter(edges []graph.Edge, vals []float64, filter *bitset.ActiveSet, acc []float64, touched *bitset.ActiveSet) {
	t0 := time.Now()
	for _, e := range edges {
		if !filter.Contains(int(e.Src)) {
			continue
		}
		g := s.prog.Gather(vals[e.Src], e, s.degrees[e.Src])
		acc[e.Dst] = s.prog.Merge(acc[e.Dst], g)
		touched.Activate(int(e.Dst))
	}
	s.computeTime += time.Since(t0)
}

// applyRange applies every touched vertex in [lo, hi) (every vertex when
// the program is always-active), resetting consumed accumulators, and returns
// how many vertices it applied.
func (s *bspState) applyRange(lo, hi int) int {
	t0 := time.Now()
	id := s.prog.Identity()
	applyOne := func(v int) {
		nv, act := s.prog.Apply(graph.VertexID(v), s.valPrev[v], s.acc[v], s.aux, s.n)
		s.valCur[v] = nv
		if act {
			s.newActive.Activate(v)
		}
		s.acc[v] = id
		s.touched.Deactivate(v)
	}
	n := hi - lo
	if s.prog.AlwaysActive() {
		for v := lo; v < hi; v++ {
			applyOne(v)
		}
	} else {
		var pending []int
		s.touched.ForEachRange(lo, hi, func(v int) bool {
			pending = append(pending, v)
			return true
		})
		for _, v := range pending {
			applyOne(v)
		}
		n = len(pending)
	}
	s.computeTime += time.Since(t0)
	return n
}

// promoteStaged swaps the staged next-iteration accumulators into the
// current slots (the outgoing ones are identity-clean after apply).
func (s *bspState) promoteStaged() {
	s.acc, s.accNext = s.accNext, s.acc
	s.touched, s.touchedNext = s.touchedNext, s.touched
}

// advance moves to the next iteration: the activation set becomes current
// and values roll forward.
func (s *bspState) advance() {
	s.active.CopyFrom(s.newActive)
	s.newActive.Reset()
	s.valPrev, s.valCur = s.valCur, s.valPrev
	copy(s.valCur, s.valPrev)
}

// outputs materializes the program outputs, charging apply time.
func (s *bspState) outputs() []float64 {
	t0 := time.Now()
	out := make([]float64, s.n)
	for v := range out {
		out[v] = s.prog.Output(graph.VertexID(v), s.valPrev[v], s.aux)
	}
	s.computeTime += time.Since(t0)
	return out
}

func (s *bspState) maxIterations(opts Options) int {
	if opts.MaxIterations > 0 {
		return opts.MaxIterations
	}
	return s.prog.MaxIterations()
}
