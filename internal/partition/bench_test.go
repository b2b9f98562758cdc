package partition

import (
	"testing"

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

func BenchmarkBuildGraphSD(b *testing.B) {
	g := benchGraph(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev, err := storage.OpenDevice(b.TempDir(), storage.HDD)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := Build(dev, g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildHUSGraph(b *testing.B) {
	g := benchGraph(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev, err := storage.OpenDevice(b.TempDir(), storage.HDD)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := BuildHUSGraph(dev, g, 8); err != nil {
			b.Fatal(err)
		}
	}
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
