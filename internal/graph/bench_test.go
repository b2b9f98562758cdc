package graph_test

import (
	"fmt"
	"sort"
	"testing"

	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
)

// benchCell returns sub-block (0, 0) of the R-MAT graph bench/ partitions
// (scale 17, edge factor 16, P = 8): the densest cell of a skewed grid, sorted
// the way the partitioner writes it — about 8 edges per run, mostly 1-2 byte
// gaps.
func benchCell(b *testing.B, weighted bool) []graph.Edge {
	b.Helper()
	g, err := gen.RMAT(17, 16, gen.Graph500, 1)
	if err != nil {
		b.Fatal(err)
	}
	const span = 1 << 17 / 8
	var cell []graph.Edge
	for _, e := range g.Edges {
		if e.Src < span && e.Dst < span {
			if weighted {
				e.Weight = float32(len(cell)%97) + 0.5
			}
			cell = append(cell, e)
		}
	}
	sort.Slice(cell, func(x, y int) bool {
		if cell[x].Src != cell[y].Src {
			return cell[x].Src < cell[y].Src
		}
		return cell[x].Dst < cell[y].Dst
	})
	if len(cell) < 100_000 {
		b.Fatalf("cell has %d edges, want >= 100000", len(cell))
	}
	return cell
}

// BenchmarkDecodeDeltaBlock is the engine's decode cost per full load:
// nil-dst is what blockSource and the cache tiers pay (one allocation of 12
// bytes per edge, nothing else), reused-dst what a caller holding a buffer
// pays (none).
func BenchmarkDecodeDeltaBlock(b *testing.B) {
	for _, column := range []string{"unweighted", "weighted"} {
		weighted := column == "weighted"
		cell := benchCell(b, weighted)
		data := graph.EncodeDeltaBlock(nil, cell, 0, 0, weighted)
		for _, into := range []string{"nil-dst", "reused-dst"} {
			reuse := into == "reused-dst"
			b.Run(into+"/"+column, func(b *testing.B) {
				var dst []graph.Edge
				if reuse {
					dst = make([]graph.Edge, 0, len(cell))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !reuse {
						dst = nil
					}
					var err error
					if dst, err = graph.AppendDeltaBlock(dst[:0], data, 0, 0, weighted); err != nil {
						b.Fatal(err)
					}
				}
				if len(dst) != len(cell) {
					b.Fatalf("decoded %d edges, want %d", len(dst), len(cell))
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(cell)), "ns/edge")
			})
		}
	}
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
	for _, c := range []struct {
		name string
		cell []graph.Edge
	}{
		{"lattice", latticeCell()},
		{"rmat", benchCell(b, true)},
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
