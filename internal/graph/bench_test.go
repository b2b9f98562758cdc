package graph_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
)

// benchGrid returns the sub-blocks of the R-MAT graph bench/ partitions (scale
// 17, edge factor 16, P = 8), row-major, each sorted the way the partitioner
// writes it, with the cell's source and destination bases.
func benchGrid(b *testing.B) (cells [][]graph.Edge, bases [][2]graph.VertexID) {
	b.Helper()
	g, err := gen.RMAT(17, 16, gen.Graph500, 1)
	if err != nil {
		b.Fatal(err)
	}
	const p, span = 8, 1 << 17 / 8
	cells = make([][]graph.Edge, p*p)
	for _, e := range g.Edges {
		k := int(e.Src/span)*p + int(e.Dst/span)
		cells[k] = append(cells[k], e)
	}
	for k, cell := range cells {
		sort.Slice(cell, func(x, y int) bool {
			if cell[x].Src != cell[y].Src {
				return cell[x].Src < cell[y].Src
			}
			return cell[x].Dst < cell[y].Dst
		})
		bases = append(bases, [2]graph.VertexID{graph.VertexID(k / p * span), graph.VertexID(k % p * span)})
	}
	return cells, bases
}

// benchCell returns a copy of sub-block (0, 0) of benchGrid's cells, weighted
// if asked: the densest cell of a skewed grid — about 8 edges per run, mostly
// 1-2 byte gaps.
func benchCell(b *testing.B, cells [][]graph.Edge, weighted bool) []graph.Edge {
	b.Helper()
	cell := slices.Clone(cells[0])
	if weighted {
		for k := range cell {
			cell[k].Weight = float32(k%97) + 0.5
		}
	}
	if len(cell) < 100_000 {
		b.Fatalf("cell has %d edges, want >= 100000", len(cell))
	}
	return cell
}

// decodeBench decodes every block of blocks per op, into a reused dst or,
// with fresh set, a nil one, and reports ns per decoded edge.
func decodeBench(b *testing.B, blocks [][]byte, bases [][2]graph.VertexID, edges int, weighted, fresh bool) {
	dst := make([]graph.Edge, 0, edges)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for k, data := range blocks {
			if fresh {
				dst = nil
			}
			var err error
			if dst, err = graph.AppendDeltaBlock(dst[:0], data, bases[k][0], bases[k][1], weighted); err != nil {
				b.Fatal(err)
			}
			n += len(dst)
		}
		if n != edges {
			b.Fatalf("decoded %d edges, want %d", n, edges)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edges), "ns/edge")
}

// BenchmarkDecodeDeltaBlock is the engine's decode cost per full load:
// nil-dst is what blockSource and the cache tiers pay (one allocation of 12
// bytes per edge, nothing else), reused-dst what a caller holding a buffer
// pays (none). lattice is a weighted block of 2-4 edges per run, the sssp
// workloads' shape; grid decodes every cell of benchGrid once per op, the mix
// of run lengths and gap widths a full R-MAT pass decodes.
func BenchmarkDecodeDeltaBlock(b *testing.B) {
	cells, bases := benchGrid(b)
	for _, column := range []string{"unweighted", "weighted"} {
		weighted := column == "weighted"
		cell := benchCell(b, cells, weighted)
		data := graph.EncodeDeltaBlock(nil, cell, 0, 0, weighted)
		for _, into := range []string{"nil-dst", "reused-dst"} {
			b.Run(into+"/"+column, func(b *testing.B) {
				decodeBench(b, [][]byte{data}, [][2]graph.VertexID{{}}, len(cell), weighted, into == "nil-dst")
			})
		}
	}
	lattice := latticeCell()
	b.Run("lattice", func(b *testing.B) {
		data := graph.EncodeDeltaBlock(nil, lattice, 0, 0, true)
		decodeBench(b, [][]byte{data}, [][2]graph.VertexID{{}}, len(lattice), true, false)
	})
	b.Run("grid", func(b *testing.B) {
		var blocks [][]byte
		edges := 0
		for k, cell := range cells {
			blocks = append(blocks, graph.EncodeDeltaBlock(nil, cell, bases[k][0], bases[k][1], false))
			edges += len(cell)
		}
		decodeBench(b, blocks, bases, edges, false, false)
	})
}

// latticeCell returns the first diagonal sub-block of the 128×128 weighted
// lattice bench/'s sssp workloads partition at P = 8: 2 048 sources of 2-4
// edges each, the block a narrow wavefront re-reads pass after pass.
func latticeCell() []graph.Edge {
	const span = 128 * 128 / 8
	var cell []graph.Edge
	for _, e := range gen.Weighted(gen.Grid(128), 16, 3).Edges {
		if e.Src < span && e.Dst < span {
			cell = append(cell, e)
		}
	}
	sort.SliceStable(cell, func(x, y int) bool { return cell[x].Src < cell[y].Src })
	return cell
}

// BenchmarkRunView prices the run-view route against BenchmarkDecodeDeltaBlock:
// scan is the once-per-block directory build (ns/edge of the whole block,
// whatever the frontier), active the per-scatter decode of the runs a filter of
// 1/64 or 1/4 of the sources selects (ns/source), both through reused memory
// as the engine's pool and scratch slice hold it. The crossover the engine's
// sparseViewDensity sits at follows from these and the full decode's ns/edge.
func BenchmarkRunView(b *testing.B) {
	cells, _ := benchGrid(b)
	for _, c := range []struct {
		name string
		cell []graph.Edge
	}{
		{"lattice", latticeCell()},
		{"rmat", benchCell(b, cells, true)},
	} {
		data := graph.EncodeDeltaBlock(nil, c.cell, 0, 0, true)
		var v graph.RunView
		b.Run("scan/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !v.Scan(data, 0, 0, true) {
					b.Fatal("no view")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(c.cell)), "ns/edge")
		})
		for _, every := range []int{64, 4} {
			filter := make([]uint64, c.cell[len(c.cell)-1].Src>>6+1)
			sources, last := 0, graph.VertexID(0)
			for k, e := range c.cell {
				if k == 0 || e.Src != last {
					if last = e.Src; sources%every == 0 {
						filter[e.Src>>6] |= 1 << (e.Src & 63)
					}
					sources++
				}
			}
			active := (sources + every - 1) / every
			b.Run(fmt.Sprintf("active-1in%d/%s", every, c.name), func(b *testing.B) {
				if !v.Scan(data, 0, 0, true) {
					b.Fatal("no view")
				}
				var scratch []graph.Edge
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if scratch, err = v.AppendActive(scratch[:0], filter); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(active), "ns/source")
				b.ReportMetric(float64(len(scratch))/float64(active), "edges/source")
			})
		}
	}
}
