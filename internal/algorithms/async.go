// Asynchronous (label-correcting / residual) forms of the monotonic
// programs. Under core's async engine a vertex value is live — there is no
// previous-iteration snapshot — so each program states how to fold a
// contribution into the live value (AsyncApply), how to settle a source
// after its value was scattered (AsyncConsume), and how much pending work a
// vertex still carries (Residual, the scheduler's priority signal).
//
// The min-programs (CC, SSSP, BFS, and the extra traversals) are classic
// label correcting: the live label only ever improves, a scattered source
// goes back to sleep unless its label improved mid-scatter, and each active
// vertex counts one unit of residual. PageRank-Delta is a residual
// formulation: the value is the un-propagated rank mass, the aux array is
// the rank; contributions bank into the rank immediately (exactly like the
// BSP Apply) and a consume subtracts the scattered snapshot from the
// pending mass.
package algorithms

import (
	"math"

	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/graph"
)

var (
	_ core.Monotonic = (*PageRankDelta)(nil)
	_ core.Monotonic = (*ConnectedComponents)(nil)
	_ core.Monotonic = (*SSSP)(nil)
	_ core.Monotonic = (*BFS)(nil)
)

// Residual implements core.Monotonic: the pending mass is the un-propagated
// delta itself.
func (p *PageRankDelta) Residual(v graph.VertexID, val float64, aux []float64) float64 {
	return math.Abs(val)
}

// AsyncApply implements core.Monotonic: the damped contribution banks into
// the rank immediately (matching the BSP Apply) and joins the pending mass;
// the vertex is active while its accumulated pending mass exceeds the
// tolerance.
func (p *PageRankDelta) AsyncApply(v graph.VertexID, cur, merged float64, aux []float64, n int) (float64, bool) {
	delta := Damping * merged
	if delta == 0 {
		return cur, false
	}
	aux[v] += delta
	nv := cur + delta
	return nv, math.Abs(nv) > p.tolerance()
}

// LabelCorrecting implements core.Monotonic: PageRank-Delta carries mass.
func (p *PageRankDelta) LabelCorrecting() bool { return false }

// AsyncConsume implements core.Monotonic: the scattered snapshot has been
// pushed to every out-neighbor, so only mass that arrived mid-scatter
// remains pending. Sub-tolerance remainders are parked (the vertex
// deactivates without propagating them), mirroring the BSP variant's
// discard of sub-tolerance deltas.
func (p *PageRankDelta) AsyncConsume(v graph.VertexID, snapshot, cur float64, aux []float64, n int) (float64, bool) {
	nv := cur - snapshot
	return nv, math.Abs(nv) > p.tolerance()
}

// minResidual, minAsyncApply, and minAsyncConsume are the shared
// label-correcting forms: one unit of pending work per active vertex, fold
// by min, sleep after a scatter unless the label improved underneath it.
func minResidual() float64 { return 1 }

func minAsyncApply(cur, merged float64) (float64, bool) {
	if merged < cur {
		return merged, true
	}
	return cur, false
}

func minAsyncConsume(snapshot, cur float64) (float64, bool) {
	return cur, cur < snapshot
}

// Residual implements core.Monotonic.
func (c *ConnectedComponents) Residual(v graph.VertexID, val float64, aux []float64) float64 {
	return minResidual()
}

// LabelCorrecting implements core.Monotonic.
func (c *ConnectedComponents) LabelCorrecting() bool { return true }

// AsyncApply implements core.Monotonic.
func (c *ConnectedComponents) AsyncApply(v graph.VertexID, cur, merged float64, aux []float64, n int) (float64, bool) {
	return minAsyncApply(cur, merged)
}

// AsyncConsume implements core.Monotonic.
func (c *ConnectedComponents) AsyncConsume(v graph.VertexID, snapshot, cur float64, aux []float64, n int) (float64, bool) {
	return minAsyncConsume(snapshot, cur)
}

// Residual implements core.Monotonic.
func (s *SSSP) Residual(v graph.VertexID, val float64, aux []float64) float64 {
	return minResidual()
}

// LabelCorrecting implements core.Monotonic.
func (s *SSSP) LabelCorrecting() bool { return true }

// AsyncApply implements core.Monotonic.
func (s *SSSP) AsyncApply(v graph.VertexID, cur, merged float64, aux []float64, n int) (float64, bool) {
	return minAsyncApply(cur, merged)
}

// AsyncConsume implements core.Monotonic.
func (s *SSSP) AsyncConsume(v graph.VertexID, snapshot, cur float64, aux []float64, n int) (float64, bool) {
	return minAsyncConsume(snapshot, cur)
}

// Residual implements core.Monotonic.
func (b *BFS) Residual(v graph.VertexID, val float64, aux []float64) float64 {
	return minResidual()
}

// LabelCorrecting implements core.Monotonic.
func (b *BFS) LabelCorrecting() bool { return true }

// AsyncApply implements core.Monotonic.
func (b *BFS) AsyncApply(v graph.VertexID, cur, merged float64, aux []float64, n int) (float64, bool) {
	return minAsyncApply(cur, merged)
}

// AsyncConsume implements core.Monotonic.
func (b *BFS) AsyncConsume(v graph.VertexID, snapshot, cur float64, aux []float64, n int) (float64, bool) {
	return minAsyncConsume(snapshot, cur)
}
