package partition

import (
	"testing"

	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/storage"
)

// FuzzLoadIndex feeds arbitrary bytes to both index loaders as the index of
// interval 0 — of a raw and a delta sub-block and of a HUS-Graph row — and, for
// whatever a loader accepts, reads every vertex of the interval through it. The
// loaders' shape check is what stands between a durable file and the selective
// path's subscripts, buffer sizes and seeks, so the property is: an error or
// edges, never a panic. The seed corpus (run by every `go test`) holds each
// layout's real index and the two files that used to kill HUS-Graph's
// on-demand path.
func FuzzLoadIndex(f *testing.F) {
	g := gen.Weighted(gen.Grid(8), 4, 1)
	type target struct {
		l    *Layout
		name string
		load func(l *Layout) (*Index, *storage.Reader, error)
	}
	block := func(l *Layout) (*Index, *storage.Reader, error) {
		idx, err := l.LoadIndex(0, 0)
		if err != nil {
			return nil, nil, err
		}
		r, err := l.OpenSubBlock(0, 0)
		return idx, r, err
	}
	row := func(l *Layout) (*Index, *storage.Reader, error) {
		idx, err := l.LoadRowIndex(0)
		if err != nil {
			return nil, nil, err
		}
		r, err := l.OpenRow(0)
		return idx, r, err
	}
	var targets []target
	for _, b := range []struct {
		build func(*storage.Device, *graph.Graph, int, ...BuildOption) (*Layout, error)
		codec graph.Codec
		name  string
		load  func(l *Layout) (*Index, *storage.Reader, error)
	}{
		{Build, graph.CodecRaw, IndexName(0, 0), block},
		{Build, graph.CodecDelta, IndexName(0, 0), block},
		{BuildHUSGraph, graph.CodecRaw, RowIndexName(0), row},
	} {
		dev, err := storage.OpenDevice(f.TempDir(), storage.HDD)
		if err != nil {
			f.Fatal(err)
		}
		l, err := b.build(dev, g, 2, WithCodec(b.codec))
		if err != nil {
			f.Fatal(err)
		}
		seed, err := dev.ReadFile(b.name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		targets = append(targets, target{l, b.name, b.load})
	}
	f.Add([]byte{1, 0})
	f.Add(append([]byte{33, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}, make([]byte, 31)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tg := range targets {
			if err := tg.l.Dev.WriteFile(tg.name, data); err != nil {
				t.Fatal(err)
			}
			idx, r, err := tg.load(tg.l)
			if err != nil {
				continue
			}
			lo, hi := tg.l.Meta.Interval(0)
			var buf []byte
			for v := lo; v < hi; v++ {
				// A damaged run or a short file is an error; only a panic fails.
				_, buf, _ = tg.l.ReadVertexEdges(r, idx, 0, graph.VertexID(v), buf)
			}
			r.Close()
		}
	})
}
