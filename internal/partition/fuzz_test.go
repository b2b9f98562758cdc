package partition

import (
	"encoding/binary"
	"slices"
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
		idx, err := l.LoadIndex(0, -1)
		return idx, l.BlockReader(0, -1), err
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

// FuzzReadVertexEdges feeds arbitrary bytes to ReadVertexEdges as the payload
// file of interval 0 — a raw and a delta sub-block (0, 0) and a HUS-Graph row —
// read under the file's real index. Positional reads are never CRC-verified, so
// the reader's own checks are all that keeps a damaged record from the kernel's
// subscripts: every edge it returns for vertex v has source v and a
// destination in the cell (any vertex, for a row); anything else is an error,
// never a panic. The seed corpus holds each layout's real file and the two
// records that used to panic HUS-Graph's on-demand row and SCIU on a raw cell:
// vertex 0's edge to 1 made an edge to 2²⁰.
func FuzzReadVertexEdges(f *testing.F) {
	g := gen.Weighted(gen.Chain(64), 4, 1)
	type target struct {
		l            *Layout
		name         string
		idx          *Index
		open         func() (*storage.Reader, error)
		dstLo, dstHi int
	}
	var targets []target
	for _, b := range []struct {
		build func(*storage.Device, *graph.Graph, int, ...BuildOption) (*Layout, error)
		codec graph.Codec
		name  string
		row   bool
	}{
		{Build, graph.CodecRaw, SubBlockName(0, 0), false},
		{Build, graph.CodecDelta, SubBlockName(0, 0), false},
		{BuildHUSGraph, graph.CodecRaw, RowName(0), true},
	} {
		dev, err := storage.OpenDevice(f.TempDir(), storage.HDD)
		if err != nil {
			f.Fatal(err)
		}
		l, err := b.build(dev, g, 4, WithCodec(b.codec))
		if err != nil {
			f.Fatal(err)
		}
		tg := target{l: l, name: b.name}
		if b.row {
			tg.idx, err = l.LoadIndex(0, -1)
			tg.open = func() (*storage.Reader, error) { return l.BlockReader(0, -1), nil }
			tg.dstHi = g.NumVertices
		} else {
			tg.idx, err = l.LoadIndex(0, 0)
			tg.open = func() (*storage.Reader, error) { return l.OpenSubBlock(0, 0) }
			tg.dstLo, tg.dstHi = l.Meta.Interval(0)
		}
		if err != nil {
			f.Fatal(err)
		}
		seed, err := dev.ReadFile(b.name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		if b.codec == graph.CodecRaw {
			hostile := slices.Clone(seed)
			binary.LittleEndian.PutUint32(hostile[4:], 1<<20)
			f.Add(hostile)
		}
		targets = append(targets, tg)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tg := range targets {
			if err := tg.l.Dev.WriteFile(tg.name, data); err != nil {
				t.Fatal(err)
			}
			r, err := tg.open()
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := tg.l.Meta.Interval(0)
			var buf []byte
			for v := lo; v < hi; v++ {
				var edges []graph.Edge
				edges, buf, err = tg.l.ReadVertexEdges(r, tg.idx, 0, graph.VertexID(v), buf)
				if err != nil {
					continue
				}
				for _, e := range edges {
					if int(e.Src) != v || int(e.Dst) < tg.dstLo || int(e.Dst) >= tg.dstHi {
						t.Fatalf("%s: vertex %d read edge %d->%d, outside its cell (destinations [%d,%d))", tg.name, v, e.Src, e.Dst, tg.dstLo, tg.dstHi)
					}
				}
			}
			if r != nil {
				r.Close()
			}
		}
	})
}
