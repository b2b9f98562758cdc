package graph_test

import (
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
