package core_test

import (
	"encoding/binary"
	"strings"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// baseBlockLayout builds a 64-vertex chain at P=4 under codec: sub-block (0, 0)
// holds the edges 0→1 … 14→15, sources and destinations in [0, 16).
func baseBlockLayout(tb testing.TB, codec graph.Codec) *partition.Layout {
	tb.Helper()
	dev, err := storage.OpenDevice(tb.TempDir(), storage.HDD)
	if err != nil {
		tb.Fatal(err)
	}
	l, err := partition.Build(dev, gen.Chain(64), 4, partition.WithCodec(codec))
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

// encodeBlock is edges as sub-block (0, 0)'s file under l's codec.
func encodeBlock(l *partition.Layout, edges []graph.Edge) []byte {
	if l.Meta.BlockCodec() == graph.CodecDelta {
		return graph.EncodeDeltaBlock(nil, edges, 0, 0, false)
	}
	var data []byte
	for _, e := range edges {
		data = graph.EncodeEdge(data, e, false)
	}
	return data
}

// writeBaseBlock makes data sub-block (0, 0)'s file, with the manifest's size
// and checksum of it fixed to match: the checksum says only that the bytes are
// the ones the manifest names, not that they describe edges of their cell.
func writeBaseBlock(tb testing.TB, l *partition.Layout, data []byte) {
	tb.Helper()
	if err := l.Dev.WriteFile(l.Meta.BlockName(0, 0), data); err != nil {
		tb.Fatal(err)
	}
	l.Meta.BlockBytes[0][0], l.Meta.BlockSums[0][0] = int64(len(data)), partition.Checksum(data)
}

// baseBlockRoutes are the runs that take a whole sub-block to the scatter:
// decoded by a full pass, as run views by a full pass over a narrow frontier
// (delta), through the per-run buffer (payloads on delta, decoded edges on raw),
// and — for the fuzz target — SCIU's positional reads.
func baseBlockRoutes() map[string]func(l *partition.Layout) error {
	run := func(prog core.Program, opts core.Options) func(l *partition.Layout) error {
		return func(l *partition.Layout) error {
			opts.MaxIterations = 3
			_, err := core.Run(l, prog, opts)
			return err
		}
	}
	return map[string]func(l *partition.Layout) error{
		"decoded":   run(&algorithms.PageRank{}, core.Options{ForceModel: core.ForceFull, DisableCrossIteration: true}),
		"fciu":      run(&algorithms.PageRank{}, core.Options{ForceModel: core.ForceFull}),
		"views":     run(&algorithms.BFS{Source: 0}, core.Options{ForceModel: core.ForceFull}),
		"buffered":  run(&algorithms.PageRank{}, core.Options{ForceModel: core.ForceFull, DefaultBuffer: true}),
		"on-demand": run(&algorithms.BFS{Source: 0}, core.Options{ForceModel: core.ForceOnDemand}),
	}
}

// TestBaseBlockEdgeOutsideItsCellRefused: a CRC-valid base block of cell (0,0)
// whose first edge 0→1 is made 0→1000000, on a graph of 64 vertices, loaded
// and panicked the scatter with index out of range on either codec, through
// every whole-block route. An edge into the next column, or out of the next
// row, was scattered where it did not belong. Each must be an error naming
// the cell.
func TestBaseBlockEdgeOutsideItsCellRefused(t *testing.T) {
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		for name, first := range map[string]graph.Edge{
			"far destination":  {Src: 0, Dst: 1000000},
			"next column":      {Src: 0, Dst: 16},
			"source next row":  {Src: 20, Dst: 1},
			"source off graph": {Src: 1 << 30, Dst: 1},
		} {
			l := baseBlockLayout(t, codec)
			edges := []graph.Edge{first}
			for v := 1; v < 15; v++ {
				edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v + 1)})
			}
			writeBaseBlock(t, l, encodeBlock(l, edges))
			for route, run := range baseBlockRoutes() {
				if route == "on-demand" {
					continue // positional reads: TestHostileRecordOnPositionalRead
				}
				if err := run(l); err == nil || !strings.Contains(err.Error(), "(0,0)") {
					t.Errorf("[%s] %s, %s: Run said %v, want an error naming sub-block (0,0)", codec, name, route, err)
				}
			}
		}
	}
}

// FuzzBaseBlock writes arbitrary bytes as sub-block (0, 0) of a small raw or
// delta layout, with the manifest's checksum of it fixed to match, loads it
// and runs it through every route a block reaches the scatter by. Nothing may
// panic, and a load that succeeds holds only edges of the cell.
func FuzzBaseBlock(f *testing.F) {
	layouts := map[bool]*partition.Layout{false: baseBlockLayout(f, graph.CodecRaw), true: baseBlockLayout(f, graph.CodecDelta)}
	for delta, l := range layouts {
		seed, err := l.Dev.ReadFile(l.Meta.BlockName(0, 0))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed, delta)
		f.Add(encodeBlock(l, []graph.Edge{{Src: 0, Dst: 1000000}, {Src: 1, Dst: 2}}), delta)
		if !delta {
			hostile := append([]byte(nil), seed...)
			binary.LittleEndian.PutUint32(hostile[4:], 16)
			f.Add(hostile, delta)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, delta bool) {
		l := layouts[delta]
		writeBaseBlock(t, l, data)
		if edges, err := l.LoadSubBlock(0, 0); err == nil {
			if err := l.Meta.Cell(0, 0).Check(edges); err != nil {
				t.Fatalf("[%s] loaded block: %v", l.Meta.BlockCodec(), err)
			}
		}
		for _, run := range baseBlockRoutes() {
			run(l)
		}
	})
}
