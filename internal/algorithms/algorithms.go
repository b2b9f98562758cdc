// Package algorithms provides the vertex programs evaluated in the paper —
// PageRank (PR), PageRank-Delta (PR-D), Connected Components (CC) and
// Single-Source Shortest Path (SSSP) — plus Breadth-First Search, each
// expressed against the core.Program interface so that every engine
// (GraphSD, its ablations, and the baselines) runs the identical algorithm
// code.
package algorithms

import (
	"fmt"
	"math"

	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/graph"
)

// Damping is the PageRank damping factor used throughout.
const Damping = 0.85

// PageRank is the classic synchronous PageRank: every vertex is active in
// every iteration; one iteration computes
//
//	rank'(v) = (1-d)/n + d * Σ_{u→v} rank(u)/outdeg(u).
//
// The paper runs it for 5 iterations.
type PageRank struct {
	// Iterations is the fixed iteration count (default 5, as in the paper).
	Iterations int
}

var _ core.Program = (*PageRank)(nil)

// Name implements core.Program.
func (p *PageRank) Name() string { return "pagerank" }

// Weighted implements core.Program.
func (p *PageRank) Weighted() bool { return false }

// AlwaysActive implements core.Program: plain PR updates every vertex.
func (p *PageRank) AlwaysActive() bool { return true }

// MaxIterations implements core.Program.
func (p *PageRank) MaxIterations() int {
	if p.Iterations > 0 {
		return p.Iterations
	}
	return 5
}

// HasAux implements core.Program.
func (p *PageRank) HasAux() bool { return false }

// Init implements core.Program.
func (p *PageRank) Init(n int, values, aux []float64, active *bitset.ActiveSet) {
	for v := range values {
		values[v] = 1.0 / float64(n)
	}
	active.ActivateAll()
}

// Identity implements core.Program.
func (p *PageRank) Identity() float64 { return 0 }

// Gather implements core.Program.
func (p *PageRank) Gather(srcVal float64, e graph.Edge, srcOutDeg uint32) float64 {
	if srcOutDeg == 0 {
		return 0
	}
	return srcVal / float64(srcOutDeg)
}

// Merge implements core.Program.
func (p *PageRank) Merge(a, b float64) float64 { return a + b }

// EdgeKernel declares the scatter loop that computes this Gather and Merge.
func (p *PageRank) EdgeKernel() core.EdgeKernel { return core.KernelSumOverOutDegree }

// Apply implements core.Program.
func (p *PageRank) Apply(v graph.VertexID, old, merged float64, aux []float64, n int) (float64, bool) {
	return (1-Damping)/float64(n) + Damping*merged, true
}

// Output implements core.Program.
func (p *PageRank) Output(v graph.VertexID, val float64, aux []float64) float64 { return val }

// PageRankDelta is the incremental PageRank variant (PR-D): a vertex's
// value is the rank *delta* it must propagate; its accumulated rank lives
// in the aux array. A vertex is re-activated only when it receives enough
// change (Tolerance), so the active set shrinks over iterations — the
// behaviour GraphSD's selective scheduling exploits. The paper runs 20
// iterations.
type PageRankDelta struct {
	// Iterations is the fixed iteration bound (default 20, as in the paper).
	Iterations int
	// Tolerance is the minimum delta that re-activates a vertex
	// (default 1e-9).
	Tolerance float64
}

var _ core.Program = (*PageRankDelta)(nil)

func (p *PageRankDelta) tolerance() float64 {
	if p.Tolerance > 0 {
		return p.Tolerance
	}
	return 1e-9
}

// Name implements core.Program.
func (p *PageRankDelta) Name() string { return "pagerank-delta" }

// Weighted implements core.Program.
func (p *PageRankDelta) Weighted() bool { return false }

// AlwaysActive implements core.Program.
func (p *PageRankDelta) AlwaysActive() bool { return false }

// MaxIterations implements core.Program.
func (p *PageRankDelta) MaxIterations() int {
	if p.Iterations > 0 {
		return p.Iterations
	}
	return 20
}

// HasAux implements core.Program: aux holds the accumulated rank.
func (p *PageRankDelta) HasAux() bool { return true }

// Init implements core.Program. Every vertex starts with rank (1-d)/n and
// propagates that same quantity as its first delta.
func (p *PageRankDelta) Init(n int, values, aux []float64, active *bitset.ActiveSet) {
	base := (1 - Damping) / float64(n)
	for v := range values {
		values[v] = base
		aux[v] = base
	}
	active.ActivateAll()
}

// Identity implements core.Program.
func (p *PageRankDelta) Identity() float64 { return 0 }

// Gather implements core.Program.
func (p *PageRankDelta) Gather(srcVal float64, e graph.Edge, srcOutDeg uint32) float64 {
	if srcOutDeg == 0 {
		return 0
	}
	return srcVal / float64(srcOutDeg)
}

// Merge implements core.Program.
func (p *PageRankDelta) Merge(a, b float64) float64 { return a + b }

// EdgeKernel declares the scatter loop that computes this Gather and Merge.
func (p *PageRankDelta) EdgeKernel() core.EdgeKernel { return core.KernelSumOverOutDegree }

// Apply implements core.Program: the received delta mass becomes the new
// delta; it is folded into the rank and propagated further only if it
// exceeds the tolerance.
func (p *PageRankDelta) Apply(v graph.VertexID, old, merged float64, aux []float64, n int) (float64, bool) {
	delta := Damping * merged
	if math.Abs(delta) <= p.tolerance() {
		return 0, false
	}
	aux[v] += delta
	return delta, true
}

// Output implements core.Program: the user-facing result is the rank.
func (p *PageRankDelta) Output(v graph.VertexID, val float64, aux []float64) float64 {
	return aux[v]
}

// ConnectedComponents is label propagation over directed edges: every
// vertex starts with its own ID as label and propagates the minimum label
// seen. On directed graphs it computes the "reachability components" of
// label propagation, exactly as out-of-core systems implement CC
// (GraphChi, GridGraph); run it on a symmetrized graph for undirected
// semantics.
type ConnectedComponents struct {
	// MaxIters caps the propagation (default 1000; label propagation
	// converges in O(diameter) iterations).
	MaxIters int
}

var _ core.Program = (*ConnectedComponents)(nil)

// Name implements core.Program.
func (c *ConnectedComponents) Name() string { return "cc" }

// Weighted implements core.Program.
func (c *ConnectedComponents) Weighted() bool { return false }

// AlwaysActive implements core.Program.
func (c *ConnectedComponents) AlwaysActive() bool { return false }

// MaxIterations implements core.Program.
func (c *ConnectedComponents) MaxIterations() int {
	if c.MaxIters > 0 {
		return c.MaxIters
	}
	return 1000
}

// HasAux implements core.Program.
func (c *ConnectedComponents) HasAux() bool { return false }

// Init implements core.Program.
func (c *ConnectedComponents) Init(n int, values, aux []float64, active *bitset.ActiveSet) {
	for v := range values {
		values[v] = float64(v)
	}
	active.ActivateAll()
}

// Identity implements core.Program.
func (c *ConnectedComponents) Identity() float64 { return math.Inf(1) }

// Gather implements core.Program.
func (c *ConnectedComponents) Gather(srcVal float64, e graph.Edge, srcOutDeg uint32) float64 {
	return srcVal
}

// Merge implements core.Program.
func (c *ConnectedComponents) Merge(a, b float64) float64 { return min(a, b) }

// EdgeKernel declares the scatter loop that computes this Gather and Merge.
func (c *ConnectedComponents) EdgeKernel() core.EdgeKernel { return core.KernelMinCopy }

// Apply implements core.Program.
func (c *ConnectedComponents) Apply(v graph.VertexID, old, merged float64, aux []float64, n int) (float64, bool) {
	if merged < old {
		return merged, true
	}
	return old, false
}

// Output implements core.Program.
func (c *ConnectedComponents) Output(v graph.VertexID, val float64, aux []float64) float64 {
	return val
}

// SSSP is single-source shortest path over non-negative edge weights
// (Bellman-Ford-style label correction, the standard out-of-core
// formulation).
type SSSP struct {
	// Source is the root vertex.
	Source graph.VertexID
	// MaxIters caps the relaxation rounds (default 1000).
	MaxIters int
}

var _ core.Program = (*SSSP)(nil)

// Name implements core.Program.
func (s *SSSP) Name() string { return "sssp" }

// Weighted implements core.Program.
func (s *SSSP) Weighted() bool { return true }

// AlwaysActive implements core.Program.
func (s *SSSP) AlwaysActive() bool { return false }

// MaxIterations implements core.Program.
func (s *SSSP) MaxIterations() int {
	if s.MaxIters > 0 {
		return s.MaxIters
	}
	return 1000
}

// HasAux implements core.Program.
func (s *SSSP) HasAux() bool { return false }

// Init implements core.Program.
func (s *SSSP) Init(n int, values, aux []float64, active *bitset.ActiveSet) {
	inf := math.Inf(1)
	for v := range values {
		values[v] = inf
	}
	if int(s.Source) < n {
		values[s.Source] = 0
		active.Activate(int(s.Source))
	}
}

// Identity implements core.Program.
func (s *SSSP) Identity() float64 { return math.Inf(1) }

// Gather implements core.Program.
func (s *SSSP) Gather(srcVal float64, e graph.Edge, srcOutDeg uint32) float64 {
	return srcVal + float64(e.Weight)
}

// Merge implements core.Program.
func (s *SSSP) Merge(a, b float64) float64 { return min(a, b) }

// EdgeKernel declares the scatter loop that computes this Gather and Merge.
func (s *SSSP) EdgeKernel() core.EdgeKernel { return core.KernelMinPlusWeight }

// Apply implements core.Program.
func (s *SSSP) Apply(v graph.VertexID, old, merged float64, aux []float64, n int) (float64, bool) {
	if merged < old {
		return merged, true
	}
	return old, false
}

// Output implements core.Program.
func (s *SSSP) Output(v graph.VertexID, val float64, aux []float64) float64 { return val }

// BFS computes hop distance from a source vertex; it is SSSP with unit
// weights and works on unweighted layouts.
type BFS struct {
	// Source is the root vertex.
	Source graph.VertexID
	// MaxIters caps the traversal depth (default 1000).
	MaxIters int
}

var _ core.Program = (*BFS)(nil)

// Name implements core.Program.
func (b *BFS) Name() string { return "bfs" }

// Weighted implements core.Program.
func (b *BFS) Weighted() bool { return false }

// AlwaysActive implements core.Program.
func (b *BFS) AlwaysActive() bool { return false }

// MaxIterations implements core.Program.
func (b *BFS) MaxIterations() int {
	if b.MaxIters > 0 {
		return b.MaxIters
	}
	return 1000
}

// HasAux implements core.Program.
func (b *BFS) HasAux() bool { return false }

// Init implements core.Program.
func (b *BFS) Init(n int, values, aux []float64, active *bitset.ActiveSet) {
	inf := math.Inf(1)
	for v := range values {
		values[v] = inf
	}
	if int(b.Source) < n {
		values[b.Source] = 0
		active.Activate(int(b.Source))
	}
}

// Identity implements core.Program.
func (b *BFS) Identity() float64 { return math.Inf(1) }

// Gather implements core.Program.
func (b *BFS) Gather(srcVal float64, e graph.Edge, srcOutDeg uint32) float64 { return srcVal + 1 }

// Merge implements core.Program.
func (b *BFS) Merge(x, y float64) float64 { return min(x, y) }

// EdgeKernel declares the scatter loop that computes this Gather and Merge.
func (b *BFS) EdgeKernel() core.EdgeKernel { return core.KernelMinPlusOne }

// Apply implements core.Program.
func (b *BFS) Apply(v graph.VertexID, old, merged float64, aux []float64, n int) (float64, bool) {
	if merged < old {
		return merged, true
	}
	return old, false
}

// Output implements core.Program.
func (b *BFS) Output(v graph.VertexID, val float64, aux []float64) float64 { return val }

// ByName constructs a program by its CLI name. src seeds the source vertex
// of traversal algorithms.
func ByName(name string, src graph.VertexID) (core.Program, error) {
	switch name {
	case "pr", "pagerank":
		return &PageRank{}, nil
	case "prd", "pr-d", "pagerank-delta":
		return &PageRankDelta{}, nil
	case "cc", "components":
		return &ConnectedComponents{}, nil
	case "sssp":
		return &SSSP{Source: src}, nil
	case "bfs":
		return &BFS{Source: src}, nil
	case "widestpath", "wp":
		return &WidestPath{Source: src}, nil
	case "reach", "reachability":
		return &Reachability{Source: src}, nil
	default:
		return nil, fmt.Errorf("algorithms: unknown algorithm %q (have pr, prd, cc, sssp, bfs, widestpath, reach)", name)
	}
}
