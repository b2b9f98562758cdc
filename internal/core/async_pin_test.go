package core_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
)

// pinnedAsync holds what the async schedule did on a weighted 32×32 grid at
// P=8 and a weighted R-MAT (scale 9, edge factor 8, seed 13) at P=4, for cc,
// bfs and sssp, on raw and delta layouts, with no buffer, a buffer of 1/16 of
// the edge bytes and one twice the graph: the schedule's counters, the
// buffer's, the device traffic per class (bytes, operations, simulated ns) and
// a hash of every step's path, blocks, reactivations, active-after count and
// device bytes followed by the outputs' bits. A change that moves a line
// changes which rows pop or what they read; re-record only for a change that
// means to, and say why.
var pinnedAsync = map[string]string{
	"bfs/grid/delta/none":       "steps=8 rounds=29 blocks=43 reacts=0 converged=true buf=[0 22 0 0 22 0] bytes=[35582 0 22520 0] ops=[31 0 8 0] ns=[184237205 0 160851 0] hash=08c3de1aa9849102",
	"bfs/grid/delta/sixteenth":  "steps=8 rounds=29 blocks=43 reacts=0 converged=true buf=[0 22 22 19 0 0] bytes=[35582 0 22520 0] ops=[31 0 8 0] ns=[184237205 0 160851 0] hash=08c3de1aa9849102",
	"bfs/grid/delta/whole":      "steps=8 rounds=29 blocks=43 reacts=0 converged=true buf=[0 22 22 0 0 0] bytes=[35582 0 22520 0] ops=[31 0 8 0] ns=[184237205 0 160851 0] hash=08c3de1aa9849102",
	"bfs/grid/raw/none":         "steps=8 rounds=29 blocks=43 reacts=0 converged=true buf=[0 22 0 0 22 0] bytes=[59904 0 22520 0] ops=[31 0 8 0] ns=[184399354 0 160851 0] hash=ff28e06b75e9dde8",
	"bfs/grid/raw/sixteenth":    "steps=8 rounds=29 blocks=43 reacts=0 converged=true buf=[0 22 14 7 8 0] bytes=[59904 0 22520 0] ops=[31 0 8 0] ns=[184399354 0 160851 0] hash=ff28e06b75e9dde8",
	"bfs/grid/raw/whole":        "steps=8 rounds=29 blocks=43 reacts=0 converged=true buf=[0 22 22 0 0 0] bytes=[59904 0 22520 0] ops=[31 0 8 0] ns=[184399354 0 160851 0] hash=ff28e06b75e9dde8",
	"bfs/rmat/delta/none":       "steps=7 rounds=10 blocks=31 reacts=4 converged=true buf=[0 28 0 0 28 0] bytes=[52395 0 6760 0] ops=[36 0 7 0] ns=[232349284 0 48282 0] hash=cc0df36993b2df2a",
	"bfs/rmat/delta/sixteenth":  "steps=7 rounds=10 blocks=31 reacts=4 converged=true buf=[0 28 20 17 8 0] bytes=[52395 0 6760 0] ops=[36 0 7 0] ns=[232349284 0 48282 0] hash=cc0df36993b2df2a",
	"bfs/rmat/delta/whole":      "steps=7 rounds=10 blocks=31 reacts=4 converged=true buf=[12 16 16 0 0 20826] bytes=[31569 0 6760 0] ops=[24 0 7 0] ns=[136210449 0 48282 0] hash=e51bef42cb37cb93",
	"bfs/rmat/raw/none":         "steps=7 rounds=10 blocks=31 reacts=4 converged=true buf=[0 28 0 0 28 0] bytes=[104448 0 6760 0] ops=[36 0 7 0] ns=[232696314 0 48282 0] hash=97516a3d93db2368",
	"bfs/rmat/raw/sixteenth":    "steps=7 rounds=10 blocks=31 reacts=4 converged=true buf=[0 28 14 12 14 0] bytes=[104448 0 6760 0] ops=[36 0 7 0] ns=[232696314 0 48282 0] hash=97516a3d93db2368",
	"bfs/rmat/raw/whole":        "steps=7 rounds=10 blocks=31 reacts=4 converged=true buf=[12 16 16 0 0 46080] bytes=[58368 0 6760 0] ops=[24 0 7 0] ns=[136389114 0 48282 0] hash=653b0127aab4151b",
	"cc/grid/delta/none":        "steps=8 rounds=59 blocks=73 reacts=0 converged=true buf=[0 22 0 0 22 0] bytes=[35582 0 46000 0] ops=[31 0 8 0] ns=[184237205 0 328568 0] hash=29e44e9c915e07b0",
	"cc/grid/delta/sixteenth":   "steps=8 rounds=59 blocks=73 reacts=0 converged=true buf=[0 22 22 19 0 0] bytes=[35582 0 46000 0] ops=[31 0 8 0] ns=[184237205 0 328568 0] hash=29e44e9c915e07b0",
	"cc/grid/delta/whole":       "steps=8 rounds=59 blocks=73 reacts=0 converged=true buf=[0 22 22 0 0 0] bytes=[35582 0 46000 0] ops=[31 0 8 0] ns=[184237205 0 328568 0] hash=29e44e9c915e07b0",
	"cc/grid/raw/none":          "steps=8 rounds=59 blocks=73 reacts=0 converged=true buf=[0 22 0 0 22 0] bytes=[59904 0 46000 0] ops=[31 0 8 0] ns=[184399354 0 328568 0] hash=ede40c04d9e56681",
	"cc/grid/raw/sixteenth":     "steps=8 rounds=59 blocks=73 reacts=0 converged=true buf=[0 22 14 7 8 0] bytes=[59904 0 46000 0] ops=[31 0 8 0] ns=[184399354 0 328568 0] hash=ede40c04d9e56681",
	"cc/grid/raw/whole":         "steps=8 rounds=59 blocks=73 reacts=0 converged=true buf=[0 22 22 0 0 0] bytes=[59904 0 46000 0] ops=[31 0 8 0] ns=[184399354 0 328568 0] hash=ede40c04d9e56681",
	"cc/rmat/delta/none":        "steps=6 rounds=12 blocks=30 reacts=26 converged=true buf=[0 24 0 0 24 0] bytes=[47187 0 8064 0] ops=[31 0 6 0] ns=[200314567 0 57597 0] hash=2adc350912b102a7",
	"cc/rmat/delta/sixteenth":   "steps=6 rounds=12 blocks=30 reacts=26 converged=true buf=[0 24 17 14 7 0] bytes=[47187 0 8064 0] ops=[31 0 6 0] ns=[200314567 0 57597 0] hash=2adc350912b102a7",
	"cc/rmat/delta/whole":       "steps=6 rounds=12 blocks=30 reacts=26 converged=true buf=[8 16 16 0 0 16642] bytes=[30545 0 8064 0] ops=[23 0 6 0] ns=[136203623 0 57597 0] hash=24a659f06a70d646",
	"cc/rmat/raw/none":          "steps=6 rounds=12 blocks=30 reacts=26 converged=true buf=[0 24 0 0 24 0] bytes=[94460 0 8064 0] ops=[31 0 6 0] ns=[200629728 0 57597 0] hash=ee37fcd1332bcfd9",
	"cc/rmat/raw/sixteenth":     "steps=6 rounds=12 blocks=30 reacts=26 converged=true buf=[0 24 12 10 12 0] bytes=[94460 0 8064 0] ops=[31 0 6 0] ns=[200629728 0 57597 0] hash=ee37fcd1332bcfd9",
	"cc/rmat/raw/whole":         "steps=6 rounds=12 blocks=30 reacts=26 converged=true buf=[8 16 16 0 0 37116] bytes=[57344 0 8064 0] ops=[23 0 6 0] ns=[136382288 0 57597 0] hash=289a3e53927740d5",
	"sssp/grid/delta/none":      "steps=14 rounds=63 blocks=87 reacts=470 converged=true buf=[0 38 0 0 38 0] bytes=[59076 0 38064 0] ops=[53 0 14 0] ns=[312393826 0 271881 0] hash=421016f23661240b",
	"sssp/grid/delta/sixteenth": "steps=14 rounds=63 blocks=87 reacts=470 converged=true buf=[1 37 37 34 0 225] bytes=[58851 0 38064 0] ops=[52 0 14 0] ns=[304392326 0 271881 0] hash=f5d06f86b520dea5",
	"sssp/grid/delta/whole":     "steps=14 rounds=63 blocks=87 reacts=470 converged=true buf=[16 22 22 0 0 17350] bytes=[41726 0 38064 0] ops=[37 0 14 0] ns=[184278161 0 271881 0] hash=0b5ad787f0517ed6",
	"sssp/grid/raw/none":        "steps=14 rounds=63 blocks=87 reacts=470 converged=true buf=[0 38 0 0 38 0] bytes=[101568 0 38064 0] ops=[53 0 14 0] ns=[312677110 0 271881 0] hash=2196d0772c643f65",
	"sssp/grid/raw/sixteenth":   "steps=14 rounds=63 blocks=87 reacts=470 converged=true buf=[6 32 18 11 14 2304] bytes=[99264 0 38064 0] ops=[47 0 14 0] ns=[264661750 0 271881 0] hash=4f903ffc1a426c27",
	"sssp/grid/raw/whole":       "steps=14 rounds=63 blocks=87 reacts=470 converged=true buf=[16 22 22 0 0 35520] bytes=[66048 0 38064 0] ops=[37 0 14 0] ns=[184440310 0 271881 0] hash=c321b868429490ec",
	"sssp/rmat/delta/none":      "steps=10 rounds=15 blocks=45 reacts=94 converged=true buf=[0 40 0 0 40 0] bytes=[73460 0 9616 0] ops=[51 0 10 0] ns=[328489711 0 68681 0] hash=4af23af8af71da2c",
	"sssp/rmat/delta/sixteenth": "steps=10 rounds=15 blocks=45 reacts=94 converged=true buf=[0 40 29 26 11 0] bytes=[73460 0 9616 0] ops=[51 0 10 0] ns=[328489711 0 68681 0] hash=4af23af8af71da2c",
	"sssp/rmat/delta/whole":     "steps=10 rounds=15 blocks=45 reacts=94 converged=true buf=[24 16 16 0 0 38819] bytes=[34641 0 9616 0] ops=[27 0 10 0] ns=[136230927 0 68681 0] hash=c28ed02b9d5c30fe",
	"sssp/rmat/raw/none":        "steps=10 rounds=15 blocks=45 reacts=94 converged=true buf=[0 40 0 0 40 0] bytes=[147348 0 9616 0] ops=[51 0 10 0] ns=[328982311 0 68681 0] hash=8f99921f21809b65",
	"sssp/rmat/raw/sixteenth":   "steps=10 rounds=15 blocks=45 reacts=94 converged=true buf=[0 40 21 19 19 0] bytes=[147348 0 9616 0] ops=[51 0 10 0] ns=[328982311 0 68681 0] hash=8f99921f21809b65",
	"sssp/rmat/raw/whole":       "steps=10 rounds=15 blocks=45 reacts=94 converged=true buf=[24 16 16 0 0 85908] bytes=[61440 0 9616 0] ops=[27 0 10 0] ns=[136409592 0 68681 0] hash=24ab8e16fb7cd96d",
}

// asyncPinLine renders an async run's pinned outcomes on one line.
func asyncPinLine(res *core.Result) string {
	h := fnv.New64a()
	for _, st := range res.IterStats {
		h.Write([]byte(st.Path))
		binary.Write(h, binary.LittleEndian, [4]int64{int64(st.Blocks), st.Reactivations, int64(st.ActiveAfter), st.IO.TotalBytes()})
	}
	for _, v := range res.Outputs {
		binary.Write(h, binary.LittleEndian, math.Float64bits(v))
	}
	a, b := res.Async, res.Buffer
	return fmt.Sprintf("steps=%d rounds=%d blocks=%d reacts=%d converged=%t buf=[%d %d %d %d %d %d] bytes=%d ops=%d ns=%d hash=%016x",
		a.Steps, a.Rounds, a.BlocksScheduled, a.Reactivations, res.Converged,
		b.Hits, b.Misses, b.Insertions, b.Evictions, b.Rejections, b.BytesSaved,
		res.IO.Bytes, res.IO.Ops, res.IO.Time, h.Sum64())
}

// pinGraph is a graph of the pinned cases and the P it is cut at.
type pinGraph struct {
	name string
	g    *graph.Graph
	p    int
}

// pinGraphs returns the pinned cases' graphs: a weighted 32×32 grid and a
// weighted R-MAT 9/8.
func pinGraphs(t *testing.T) []pinGraph {
	t.Helper()
	rmat, err := gen.RMAT(9, 8, gen.Graph500, 13)
	if err != nil {
		t.Fatal(err)
	}
	return []pinGraph{
		{"grid", gen.Weighted(gen.Grid(32), 16, 5), 8},
		{"rmat", gen.Weighted(rmat, 16, 5), 4},
	}
}

// pinProgs are the pinned cases' programs.
var pinProgs = []struct {
	name string
	mk   func() core.Program
}{
	{"cc", func() core.Program { return &algorithms.ConnectedComponents{} }},
	{"bfs", func() core.Program { return &algorithms.BFS{Source: 0} }},
	{"sssp", func() core.Program { return &algorithms.SSSP{Source: 0} }},
}

// TestAsyncSchedulePinned runs every case of pinnedAsync and holds each run
// to its line.
func TestAsyncSchedulePinned(t *testing.T) {
	got := make(map[string]string)
	for _, gc := range pinGraphs(t) {
		for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
			var l *partition.Layout
			for _, pc := range pinProgs {
				for bi, buf := range []string{"none", "sixteenth", "whole"} {
					if l == nil {
						l = codecLayout(t, gc.g, gc.p, codec)
					}
					capacity := [3]int64{0, l.Meta.EdgeBytesTotal() / 16, 2 * l.Meta.EdgeBytesTotal()}[bi]
					key := fmt.Sprintf("%s/%s/%s/%s", pc.name, gc.name, codec, buf)
					res, err := core.Run(l, pc.mk(), core.Options{Async: true, BufferBytes: capacity})
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					got[key] = asyncPinLine(res)
				}
			}
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != pinnedAsync[k] {
			t.Errorf("%q: %q,", k, got[k])
		}
	}
	if len(pinnedAsync) != len(got) {
		t.Errorf("%d pinned lines for %d cases", len(pinnedAsync), len(got))
	}
}

// TestAsyncPopsRowWithMostActive holds the rule itself on the pinned graphs:
// every step pops the row with the most active vertices, counted from the
// frontier as the step begins, ties to the lower row.
func TestAsyncPopsRowWithMostActive(t *testing.T) {
	for _, gc := range pinGraphs(t) {
		l := codecLayout(t, gc.g, gc.p, graph.CodecRaw)
		for _, pc := range pinProgs {
			label := pc.name + "/" + gc.name
			res, rows, counts, err := core.RunCountingRows(l, pc.mk(), core.Options{Async: true, DefaultBuffer: true})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !res.Converged || len(rows) != res.Async.Steps {
				t.Fatalf("%s: converged=%t, %d pops over %d steps", label, res.Converged, len(rows), res.Async.Steps)
			}
			for k, i := range rows {
				c := counts[k]
				for r, n := range c {
					if n > c[i] || n == c[i] && r < i || c[i] == 0 {
						t.Fatalf("%s: step %d popped row %d of %d active vertices; the rows held %v", label, k, i, c[i], c)
					}
				}
			}
		}
	}
}
