package partition

import (
	"sync"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/storage"
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.RMAT(13, 12, gen.Graph500, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// rmat17 is shaped like the benchmark module's PageRank input: R-MAT scale
// 17, edge factor 16 (2.1 M edges). It is generated once per test binary.
var rmat17 = sync.OnceValues(func() (*graph.Graph, error) { return gen.RMAT(17, 16, gen.Graph500, 1) })

// benchBuilds runs build over the small graph and over rmat17.
func benchBuilds(b *testing.B, build func(*storage.Device, *graph.Graph) (*Layout, error)) {
	b.Run("rmat13", func(b *testing.B) { benchBuild(b, benchGraph(b), build) })
	b.Run("rmat17", func(b *testing.B) {
		g, err := rmat17()
		if err != nil {
			b.Fatal(err)
		}
		benchBuild(b, g, build)
	})
}

// benchBuild times build over g, each run on a fresh device, and reports
// prep-ns/edge: the builder's CPU time without its device writes
// (Layout.PrepCPU) per input edge — the bucketing, sorting and encoding.
func benchBuild(b *testing.B, g *graph.Graph, build func(*storage.Device, *graph.Graph) (*Layout, error)) {
	b.ResetTimer() // generating g is not the build
	var prep time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev, err := storage.OpenDevice(b.TempDir(), storage.HDD)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		l, err := build(dev, g)
		if err != nil {
			b.Fatal(err)
		}
		prep += l.PrepCPU
	}
	b.ReportMetric(float64(prep.Nanoseconds())/float64(b.N)/float64(len(g.Edges)), "prep-ns/edge")
}

// BenchmarkBuildGraphSD builds the delta-coded grid the benchmark module runs on.
func BenchmarkBuildGraphSD(b *testing.B) {
	benchBuilds(b, func(dev *storage.Device, g *graph.Graph) (*Layout, error) {
		return Build(dev, g, 8, WithCodec(graph.CodecDelta))
	})
}

func BenchmarkBuildHUSGraph(b *testing.B) {
	benchBuilds(b, func(dev *storage.Device, g *graph.Graph) (*Layout, error) {
		return BuildHUSGraph(dev, g, 8)
	})
}

func BenchmarkBuildLumos(b *testing.B) {
	g := benchGraph(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev, err := storage.OpenDevice(b.TempDir(), storage.HDD)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := BuildLumos(dev, g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadSubBlock(b *testing.B) {
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		b.Run(codec.String(), func(b *testing.B) {
			dev, err := storage.OpenDevice(b.TempDir(), storage.HDD)
			if err != nil {
				b.Fatal(err)
			}
			l, err := Build(dev, benchGraph(b), 4, WithCodec(codec))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.LoadSubBlock(0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReadVertexEdges(b *testing.B) {
	dev, err := storage.OpenDevice(b.TempDir(), storage.HDD)
	if err != nil {
		b.Fatal(err)
	}
	l, err := Build(dev, benchGraph(b), 4)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := l.LoadIndex(0, 0)
	if err != nil {
		b.Fatal(err)
	}
	r, err := l.OpenSubBlock(0, 0)
	if err != nil || r == nil {
		b.Fatalf("open: %v", err)
	}
	defer r.Close()
	lo, hi := l.Meta.Interval(0)
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := graph.VertexID(lo + i%(hi-lo))
		_, buf, err = l.ReadVertexEdges(r, idx, 0, v, buf)
		if err != nil {
			b.Fatal(err)
		}
	}
}
