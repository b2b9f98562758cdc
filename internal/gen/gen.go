// Package gen produces deterministic synthetic graphs for tests, examples
// and the experiment harness.
//
// The paper's evaluation uses Twitter2010, SK2005, UK2007, UKUnion and a
// Graph500 Kronecker graph (Table 3), all billions of edges. Those datasets
// are unavailable here (and would not fit the environment), so each preset
// in Presets synthesizes a scaled-down graph with the same structural
// character: heavy-tailed degree distributions for the social networks
// (R-MAT with Graph500 parameters), locality-biased web-like structure for
// the UK crawls, and a pure Kronecker graph for Kron30. DESIGN.md §2
// documents the substitution.
//
// All generators take an explicit seed and are reproducible bit-for-bit.
package gen

import (
	"fmt"
	"math/rand"

	"github.com/graphsd/graphsd/internal/graph"
)

// RMATParams configures the recursive-matrix (Kronecker) generator.
// A, B, C, D are the quadrant probabilities; they must be positive and sum
// to ~1. Graph500 uses A=0.57 B=0.19 C=0.19 D=0.05.
type RMATParams struct {
	A, B, C, D float64
	// Noise perturbs the quadrant probabilities at every recursion level to
	// avoid the artificial self-similarity of pure R-MAT. 0 disables it.
	Noise float64
}

// Graph500 is the standard Graph500 R-MAT parameter set.
var Graph500 = RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05, Noise: 0.1}

// RMAT generates a directed graph with 2^scale vertices and edgeFactor
// edges per vertex using the R-MAT recursive quadrant model.
func RMAT(scale int, edgeFactor int, p RMATParams, seed int64) (*graph.Graph, error) {
	if scale < 0 || scale > 30 {
		return nil, fmt.Errorf("gen: rmat scale %d out of range [0,30]", scale)
	}
	if edgeFactor < 0 {
		return nil, fmt.Errorf("gen: negative edge factor %d", edgeFactor)
	}
	sum := p.A + p.B + p.C + p.D
	if p.A <= 0 || p.B <= 0 || p.C <= 0 || p.D <= 0 || sum < 0.99 || sum > 1.01 {
		return nil, fmt.Errorf("gen: rmat probabilities %v must be positive and sum to 1", p)
	}
	n := 1 << uint(scale)
	m := n * edgeFactor
	rng := rand.New(rand.NewSource(seed))
	g := &graph.Graph{NumVertices: n, Edges: make([]graph.Edge, 0, m)}
	for i := 0; i < m; i++ {
		src, dst := rmatEdge(scale, p, rng)
		g.Edges = append(g.Edges, graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst)})
	}
	return g, nil
}

func rmatEdge(scale int, p RMATParams, rng *rand.Rand) (src, dst int) {
	a, b, c := p.A, p.B, p.C
	for level := 0; level < scale; level++ {
		ai, bi, ci := a, b, c
		if p.Noise > 0 {
			ai *= 1 + p.Noise*(rng.Float64()*2-1)
			bi *= 1 + p.Noise*(rng.Float64()*2-1)
			ci *= 1 + p.Noise*(rng.Float64()*2-1)
		}
		r := rng.Float64() * (ai + bi + ci + (1 - a - b - c))
		src <<= 1
		dst <<= 1
		switch {
		case r < ai:
			// top-left quadrant: no bits set
		case r < ai+bi:
			dst |= 1
		case r < ai+bi+ci:
			src |= 1
		default:
			src |= 1
			dst |= 1
		}
	}
	return src, dst
}

// ErdosRenyi generates a directed G(n, m) graph: m edges sampled uniformly
// with replacement (self-loops allowed, as in the raw edge streams the
// out-of-core systems consume).
func ErdosRenyi(n, m int, seed int64) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: erdos-renyi needs positive n, got %d", n)
	}
	if m < 0 {
		return nil, fmt.Errorf("gen: negative edge count %d", m)
	}
	rng := rand.New(rand.NewSource(seed))
	g := &graph.Graph{NumVertices: n, Edges: make([]graph.Edge, m)}
	for i := range g.Edges {
		g.Edges[i] = graph.Edge{
			Src: graph.VertexID(rng.Intn(n)),
			Dst: graph.VertexID(rng.Intn(n)),
		}
	}
	return g, nil
}

// PowerLaw generates a directed graph with n vertices and m edges whose
// source and destination vertices are drawn from a Zipf distribution with
// exponent s, matching the heavy-tailed degree skew of social networks.
func PowerLaw(n, m int, s float64, seed int64) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: powerlaw needs positive n, got %d", n)
	}
	if m < 0 {
		return nil, fmt.Errorf("gen: negative edge count %d", m)
	}
	if s <= 1 {
		return nil, fmt.Errorf("gen: zipf exponent must exceed 1, got %v", s)
	}
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	if z == nil {
		return nil, fmt.Errorf("gen: invalid zipf parameters s=%v n=%d", s, n)
	}
	// Zipf favours small values; scatter hub IDs across the ID space with a
	// fixed permutation multiplier so that hubs are not all in interval 0.
	perm := rng.Perm(n)
	g := &graph.Graph{NumVertices: n, Edges: make([]graph.Edge, m)}
	for i := range g.Edges {
		g.Edges[i] = graph.Edge{
			Src: graph.VertexID(perm[int(z.Uint64())]),
			Dst: graph.VertexID(rng.Intn(n)),
		}
	}
	return g, nil
}

// WebLike generates a web-graph-like structure: mostly local links
// (destination near the source in ID space, as produced by crawl-order
// vertex numbering in the LAW datasets) with a fraction of long-range
// links, and Zipf-skewed in-degree for popular pages.
func WebLike(n, m int, locality float64, seed int64) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: weblike needs positive n, got %d", n)
	}
	if m < 0 {
		return nil, fmt.Errorf("gen: negative edge count %d", m)
	}
	if locality < 0 || locality > 1 {
		return nil, fmt.Errorf("gen: locality %v out of [0,1]", locality)
	}
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.8, 1, uint64(n-1))
	window := n / 64
	if window < 4 {
		window = 4
	}
	g := &graph.Graph{NumVertices: n, Edges: make([]graph.Edge, m)}
	for i := range g.Edges {
		src := rng.Intn(n)
		var dst int
		if rng.Float64() < locality {
			// Local link inside the crawl window around src.
			dst = src + rng.Intn(2*window+1) - window
			if dst < 0 {
				dst += n
			}
			if dst >= n {
				dst -= n
			}
		} else {
			dst = int(z.Uint64())
		}
		g.Edges[i] = graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst)}
	}
	return g, nil
}

// BarabasiAlbert generates a preferential-attachment graph: vertices
// arrive in ID order and each new vertex attaches m out-edges to existing
// vertices chosen proportionally to their current degree (plus one, so
// isolated seeds are reachable). The result has the power-law in-degree of
// organically grown networks and — unlike R-MAT — genuine temporal
// structure: low IDs are the old, high-degree core.
func BarabasiAlbert(n, m int, seed int64) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: barabasi-albert needs positive n, got %d", n)
	}
	if m <= 0 || m >= n {
		return nil, fmt.Errorf("gen: attachment count %d out of (0,%d)", m, n)
	}
	rng := rand.New(rand.NewSource(seed))
	g := &graph.Graph{NumVertices: n}
	// targets is the repeated-endpoint urn: each attachment event appends
	// both endpoints, implementing degree-proportional sampling in O(1).
	targets := make([]graph.VertexID, 0, 2*n*m)
	for s := 0; s < m; s++ {
		targets = append(targets, graph.VertexID(s))
	}
	chosen := make([]graph.VertexID, 0, m)
	for v := m; v < n; v++ {
		chosen = chosen[:0]
	pick:
		for len(chosen) < m {
			t := targets[rng.Intn(len(targets))]
			if int(t) == v {
				continue
			}
			for _, c := range chosen {
				if c == t {
					continue pick
				}
			}
			chosen = append(chosen, t)
		}
		for _, t := range chosen {
			g.Edges = append(g.Edges, graph.Edge{Src: graph.VertexID(v), Dst: t})
			targets = append(targets, graph.VertexID(v), t)
		}
	}
	return g, nil
}

// Chain returns the path graph 0→1→…→n-1.
func Chain(n int) *graph.Graph {
	g := &graph.Graph{NumVertices: n}
	for i := 0; i+1 < n; i++ {
		g.Edges = append(g.Edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)})
	}
	return g
}

// Star returns a star with edges hub→i for every other vertex i.
func Star(n int) *graph.Graph {
	g := &graph.Graph{NumVertices: n}
	for i := 1; i < n; i++ {
		g.Edges = append(g.Edges, graph.Edge{Src: 0, Dst: graph.VertexID(i)})
	}
	return g
}

// Grid returns the side×side 4-neighbour lattice with row-major vertex ids
// and an edge in each direction between neighbours: high diameter and a
// narrow frontier, and — partitioned into intervals of whole rows — almost all
// of every interval's edges in its diagonal sub-block.
func Grid(side int) *graph.Graph {
	g := &graph.Graph{NumVertices: side * side}
	link := func(u, v int) {
		g.Edges = append(g.Edges,
			graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)},
			graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(u)})
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

// Braid returns p chains woven through p equal intervals of per vertices
// (vertex ids interval*per + offset): offset t of interval i links to offset
// t+1 of interval (i+1)%p for 1 ≤ t < steps, and vertex 0 links to offset 1
// of every interval. A traversal from vertex 0 therefore holds exactly one
// active vertex in every interval at every step — a small frontier with no
// dead source interval, where only selective reads save I/O. The upper half
// of each interval is filler the traversal never reaches, joined by fill
// random edges, so every grid cell has bulk for a full pass to stream.
func Braid(p, per, steps, fill int, seed int64) (*graph.Graph, error) {
	if p <= 0 || steps <= 0 || per < 2*(steps+1) {
		return nil, fmt.Errorf("gen: braid needs positive p and steps, and intervals of at least 2*(steps+1) vertices")
	}
	rng := rand.New(rand.NewSource(seed))
	g := &graph.Graph{NumVertices: p * per}
	at := func(interval, offset int) graph.VertexID { return graph.VertexID(interval*per + offset) }
	for i := 0; i < p; i++ {
		g.Edges = append(g.Edges, graph.Edge{Src: 0, Dst: at(i, 1)})
		for t := 1; t < steps; t++ {
			g.Edges = append(g.Edges, graph.Edge{Src: at(i, t), Dst: at((i+1)%p, t+1)})
		}
	}
	half := per / 2
	for k := 0; k < fill; k++ {
		g.Edges = append(g.Edges, graph.Edge{
			Src: at(rng.Intn(p), half+rng.Intn(per-half)),
			Dst: at(rng.Intn(p), half+rng.Intn(per-half)),
		})
	}
	return g, nil
}

// Complete returns the complete directed graph on n vertices (no loops).
func Complete(n int) *graph.Graph {
	g := &graph.Graph{NumVertices: n}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				g.Edges = append(g.Edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(j)})
			}
		}
	}
	return g
}

// Clustered returns k disjoint Erdős–Rényi clusters joined by a few bridge
// edges, useful for exercising connected-components workloads.
func Clustered(k, perCluster, edgesPer int, bridges int, seed int64) (*graph.Graph, error) {
	if k <= 0 || perCluster <= 0 {
		return nil, fmt.Errorf("gen: clustered needs positive k and cluster size")
	}
	rng := rand.New(rand.NewSource(seed))
	n := k * perCluster
	g := &graph.Graph{NumVertices: n}
	for c := 0; c < k; c++ {
		base := c * perCluster
		for i := 0; i < edgesPer; i++ {
			g.Edges = append(g.Edges, graph.Edge{
				Src: graph.VertexID(base + rng.Intn(perCluster)),
				Dst: graph.VertexID(base + rng.Intn(perCluster)),
			})
		}
	}
	for i := 0; i < bridges; i++ {
		c1, c2 := rng.Intn(k), rng.Intn(k)
		g.Edges = append(g.Edges, graph.Edge{
			Src: graph.VertexID(c1*perCluster + rng.Intn(perCluster)),
			Dst: graph.VertexID(c2*perCluster + rng.Intn(perCluster)),
		})
	}
	return g, nil
}

// Weighted assigns deterministic pseudo-random weights in (0, maxW] to every
// edge of g in place and marks the graph weighted.
func Weighted(g *graph.Graph, maxW float32, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	for i := range g.Edges {
		g.Edges[i].Weight = 1 + rng.Float32()*(maxW-1)
	}
	g.Weighted = true
	return g
}
