// Package graph defines the core graph data types shared by every GraphSD
// component: vertex identifiers, edges, the on-disk edge record layout, and
// an in-memory CSR representation used as the correctness oracle for the
// out-of-core engines.
package graph

import "fmt"

// VertexID identifies a vertex. GraphSD uses dense 32-bit IDs in
// [0, NumVertices); real-world graphs at the paper's scale (up to 1 B
// vertices for Kron30) fit in uint32.
type VertexID uint32

// Edge is a directed, weighted edge. Weight is meaningful only for weighted
// algorithms (SSSP); unweighted algorithms ignore it. The on-disk encoded
// size of an edge is EdgeBytes.
type Edge struct {
	Src    VertexID
	Dst    VertexID
	Weight float32
}

// Sizes of the on-disk records, in bytes. These are the M, N and W constants
// of the paper's cost model (Table 2): an edge structure is two 4-byte vertex
// IDs, a vertex value record is 8 bytes (float64 or packed state), and an
// edge weight is 4 bytes.
const (
	EdgeBytes        = 8 // src + dst, uint32 each
	WeightBytes      = 4 // float32
	VertexValueBytes = 8
	IndexEntryBytes  = 8 // per-vertex offset entry in a sub-block index
)

// Graph is an immutable in-memory edge list with metadata. It is the
// interchange format between generators, preprocessors and the reference
// engines. Out-of-core engines never hold a whole Graph for large inputs;
// they read the partitioned on-disk layout instead.
type Graph struct {
	NumVertices int
	Edges       []Edge
	Weighted    bool
}

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Validate checks structural invariants: every endpoint is within range.
func (g *Graph) Validate() error {
	if g.NumVertices < 0 {
		return fmt.Errorf("graph: negative vertex count %d", g.NumVertices)
	}
	n := VertexID(g.NumVertices)
	for i, e := range g.Edges {
		if e.Src >= n || e.Dst >= n {
			return fmt.Errorf("graph: edge %d (%d->%d) out of range [0,%d)", i, e.Src, e.Dst, n)
		}
	}
	return nil
}

// OutDegrees returns the out-degree of every vertex.
func (g *Graph) OutDegrees() []uint32 {
	deg := make([]uint32, g.NumVertices)
	for _, e := range g.Edges {
		deg[e.Src]++
	}
	return deg
}

// InDegrees returns the in-degree of every vertex.
func (g *Graph) InDegrees() []uint32 {
	deg := make([]uint32, g.NumVertices)
	for _, e := range g.Edges {
		deg[e.Dst]++
	}
	return deg
}

// SortBySrc sorts edges in place by (src, dst, weight bits), the order of a
// layout cell (EdgeSorter.BySrc). GraphSD's representation requires
// source-major order within each sub-block so that a per-vertex index can
// locate the contiguous edge list of any active vertex.
func (g *Graph) SortBySrc() {
	new(EdgeSorter).BySrc(g.Edges)
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	edges := make([]Edge, len(g.Edges))
	copy(edges, g.Edges)
	return &Graph{NumVertices: g.NumVertices, Edges: edges, Weighted: g.Weighted}
}

// Bytes returns the total on-disk size of the edge data in bytes, the |E|×(M+W)
// term of the paper's cost model. Unweighted graphs omit the weight column.
func (g *Graph) Bytes() int64 {
	per := int64(EdgeBytes)
	if g.Weighted {
		per += WeightBytes
	}
	return per * int64(len(g.Edges))
}

// CSR is a compressed sparse row view of a graph: for each source vertex,
// the contiguous slice of its outgoing edges. It is the in-memory oracle
// representation used by reference implementations and tests.
type CSR struct {
	NumVertices int
	Offsets     []int64 // len NumVertices+1
	Dst         []VertexID
	Weight      []float32 // nil for unweighted graphs
}

// BuildCSR constructs a CSR from a graph. The input edge order is not
// disturbed; edges within a row appear in input order.
func BuildCSR(g *Graph) *CSR {
	n := g.NumVertices
	offsets := make([]int64, n+1)
	for _, e := range g.Edges {
		offsets[e.Src+1]++
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	dst := make([]VertexID, len(g.Edges))
	var weight []float32
	if g.Weighted {
		weight = make([]float32, len(g.Edges))
	}
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for _, e := range g.Edges {
		p := cursor[e.Src]
		dst[p] = e.Dst
		if weight != nil {
			weight[p] = e.Weight
		}
		cursor[e.Src]++
	}
	return &CSR{NumVertices: n, Offsets: offsets, Dst: dst, Weight: weight}
}

// Neighbors returns the destination slice for v's outgoing edges.
// The returned slice aliases internal storage and must not be modified.
func (c *CSR) Neighbors(v VertexID) []VertexID {
	return c.Dst[c.Offsets[v]:c.Offsets[v+1]]
}

// Weights returns v's outgoing edge weights, aligned with Neighbors(v).
// It returns nil for unweighted graphs.
func (c *CSR) Weights(v VertexID) []float32 {
	if c.Weight == nil {
		return nil
	}
	return c.Weight[c.Offsets[v]:c.Offsets[v+1]]
}
