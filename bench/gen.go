package main

import (
	"sort"

	"github.com/graphsd/graphsd/internal/delta"
	"github.com/graphsd/graphsd/internal/graph"
)

// Input generation lives here, not in internal/gen, so the benchmark's
// inputs stay fixed when the repository's own generators change. -seed is
// the only thing that changes generated data.

// rng is splitmix64: tiny, fast, and identical on every platform.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + 0x2545F4914F6CDD1D}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is below 2^-32 for the
// ranges used here.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// weight returns an integer weight in 1..16. Integer weights keep path sums
// exact in float64 whatever the summation order, so engine and reference
// can be compared bit for bit.
func (r *rng) weight() float32 { return float32(1 + r.intn(16)) }

// rmat generates 2^scale vertices and edgeFactor·2^scale edges with the
// Graph500 R-MAT quadrant probabilities (0.57, 0.19, 0.19, 0.05). Duplicate
// edges and self-loops are kept, as in a raw edge stream.
func rmat(scale, edgeFactor int, weighted bool, seed int64) *graph.Graph {
	// Cumulative quadrant thresholds on a 32-bit draw.
	threshold := func(p float64) uint64 { return uint64(p * (1 << 32)) }
	ta, tab, tabc := threshold(0.57), threshold(0.57+0.19), threshold(0.57+0.19+0.19)
	r := newRNG(seed, 1)
	n := 1 << uint(scale)
	g := &graph.Graph{NumVertices: n, Edges: make([]graph.Edge, n*edgeFactor), Weighted: weighted}
	for k := range g.Edges {
		var src, dst uint32
		for level := 0; level < scale; level++ {
			q := r.next() >> 32
			src <<= 1
			dst <<= 1
			switch {
			case q < ta:
			case q < tab:
				dst |= 1
			case q < tabc:
				src |= 1
			default:
				src |= 1
				dst |= 1
			}
		}
		e := graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst)}
		if weighted {
			e.Weight = r.weight()
		}
		g.Edges[k] = e
	}
	return g
}

// lattice generates a side×side 4-neighbour grid with row-major vertex ids
// and an independently weighted edge in each direction: high diameter, a
// narrow frontier, hundreds of short iterations.
func lattice(side int, seed int64, stream uint64) *graph.Graph {
	r := newRNG(seed, 100+stream)
	g := &graph.Graph{NumVertices: side * side, Weighted: true}
	g.Edges = make([]graph.Edge, 0, 4*side*(side-1))
	link := func(u, v int) {
		g.Edges = append(g.Edges,
			graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v), Weight: r.weight()},
			graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(u), Weight: r.weight()})
	}
	for row := 0; row < side; row++ {
		for col := 0; col < side; col++ {
			v := row*side + col
			if col+1 < side {
				link(v, v+1)
			}
			if row+1 < side {
				link(v, v+side)
			}
		}
	}
	return g
}

// topOutDegree returns the k vertices of highest out-degree (ties to the
// lower id), the pool serve_mixed draws traversal sources from so that every
// job reaches a large part of the graph.
func topOutDegree(g *graph.Graph, k int) []uint32 {
	deg := g.OutDegrees()
	ids := make([]uint32, len(deg))
	for v := range ids {
		ids[v] = uint32(v)
	}
	sort.Slice(ids, func(x, y int) bool {
		if deg[ids[x]] != deg[ids[y]] {
			return deg[ids[x]] > deg[ids[y]]
		}
		return ids[x] < ids[y]
	})
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}

// serveOp is one closed-loop client operation: an algorithm job, or (Alg
// empty) a batch of edge insertions.
type serveOp struct {
	Alg    string
	Source uint32
	Batch  []delta.Mutation
}

// Client 0 is the only mutator, so its own jobs always see exactly the
// mutations it has had acknowledged; client 1 reads beside it.
var clientCycles = [2][]string{
	{"", "pr", "sssp"},
	{"pr", "bfs", "cc", "sssp"},
}

const (
	mutationBatch = 256
	sourcePool    = 64
)

// opSequence yields a client's k-th operation. The sequence is a pure
// function of (seed, client): how far a run gets through it depends on the
// host, what it contains does not.
type opSequence struct {
	r        *rng
	cycle    []string
	sources  []uint32
	vertices int
	k        int
}

func newOpSequence(seed int64, client int, sources []uint32, vertices int) *opSequence {
	return &opSequence{r: newRNG(seed, 200+uint64(client)), cycle: clientCycles[client], sources: sources, vertices: vertices}
}

func (s *opSequence) next() serveOp {
	alg := s.cycle[s.k%len(s.cycle)]
	s.k++
	if alg != "" {
		return serveOp{Alg: alg, Source: s.sources[s.r.intn(len(s.sources))]}
	}
	return serveOp{Batch: randomBatch(s.r, s.vertices)}
}

// randomBatch draws one batch of edge insertions between uniform endpoints.
func randomBatch(r *rng, vertices int) []delta.Mutation {
	batch := make([]delta.Mutation, mutationBatch)
	for i := range batch {
		batch[i] = delta.Mutation{Op: delta.OpInsert,
			Src: graph.VertexID(r.intn(vertices)), Dst: graph.VertexID(r.intn(vertices)), Weight: r.weight()}
	}
	return batch
}
