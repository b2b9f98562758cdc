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
// the edge bytes and one twice the graph, under seeds 0 and 7: the schedule's
// counters, the buffer's, the device traffic per class (bytes, operations,
// simulated ns) and a hash of every step's path, blocks, reactivations,
// residual bits and device bytes followed by the outputs' bits. A change that
// moves a line changes which rows pop or what they read; re-record only for a
// change that means to, and say why.
var pinnedAsync = map[string]string{
	"bfs/grid/delta/none/seed0":       "steps=8 sel=0 rounds=29 blocks=43 reacts=0 converged=true buf=[0 22 0 0 22 0] bytes=[35582 0 22520 0] ops=[31 0 8 0] ns=[184237205 0 160851 0] hash=1107bb33d6a05a22",
	"bfs/grid/delta/none/seed7":       "steps=8 sel=0 rounds=29 blocks=43 reacts=0 converged=true buf=[0 22 0 0 22 0] bytes=[35582 0 22520 0] ops=[31 0 8 0] ns=[184237205 0 160851 0] hash=1107bb33d6a05a22",
	"bfs/grid/delta/sixteenth/seed0":  "steps=8 sel=0 rounds=29 blocks=43 reacts=0 converged=true buf=[0 22 22 19 0 0] bytes=[35582 0 22520 0] ops=[31 0 8 0] ns=[184237205 0 160851 0] hash=1107bb33d6a05a22",
	"bfs/grid/delta/sixteenth/seed7":  "steps=8 sel=0 rounds=29 blocks=43 reacts=0 converged=true buf=[0 22 22 19 0 0] bytes=[35582 0 22520 0] ops=[31 0 8 0] ns=[184237205 0 160851 0] hash=1107bb33d6a05a22",
	"bfs/grid/delta/whole/seed0":      "steps=8 sel=0 rounds=29 blocks=43 reacts=0 converged=true buf=[0 22 22 0 0 0] bytes=[35582 0 22520 0] ops=[31 0 8 0] ns=[184237205 0 160851 0] hash=1107bb33d6a05a22",
	"bfs/grid/delta/whole/seed7":      "steps=8 sel=0 rounds=29 blocks=43 reacts=0 converged=true buf=[0 22 22 0 0 0] bytes=[35582 0 22520 0] ops=[31 0 8 0] ns=[184237205 0 160851 0] hash=1107bb33d6a05a22",
	"bfs/grid/raw/none/seed0":         "steps=8 sel=0 rounds=29 blocks=43 reacts=0 converged=true buf=[0 22 0 0 22 0] bytes=[59904 0 22520 0] ops=[31 0 8 0] ns=[184399354 0 160851 0] hash=21d59b9dfc3907c8",
	"bfs/grid/raw/none/seed7":         "steps=8 sel=0 rounds=29 blocks=43 reacts=0 converged=true buf=[0 22 0 0 22 0] bytes=[59904 0 22520 0] ops=[31 0 8 0] ns=[184399354 0 160851 0] hash=21d59b9dfc3907c8",
	"bfs/grid/raw/sixteenth/seed0":    "steps=8 sel=0 rounds=29 blocks=43 reacts=0 converged=true buf=[0 22 14 7 8 0] bytes=[59904 0 22520 0] ops=[31 0 8 0] ns=[184399354 0 160851 0] hash=21d59b9dfc3907c8",
	"bfs/grid/raw/sixteenth/seed7":    "steps=8 sel=0 rounds=29 blocks=43 reacts=0 converged=true buf=[0 22 14 7 8 0] bytes=[59904 0 22520 0] ops=[31 0 8 0] ns=[184399354 0 160851 0] hash=21d59b9dfc3907c8",
	"bfs/grid/raw/whole/seed0":        "steps=8 sel=0 rounds=29 blocks=43 reacts=0 converged=true buf=[0 22 22 0 0 0] bytes=[59904 0 22520 0] ops=[31 0 8 0] ns=[184399354 0 160851 0] hash=21d59b9dfc3907c8",
	"bfs/grid/raw/whole/seed7":        "steps=8 sel=0 rounds=29 blocks=43 reacts=0 converged=true buf=[0 22 22 0 0 0] bytes=[59904 0 22520 0] ops=[31 0 8 0] ns=[184399354 0 160851 0] hash=21d59b9dfc3907c8",
	"bfs/rmat/delta/none/seed0":       "steps=7 sel=0 rounds=10 blocks=31 reacts=4 converged=true buf=[0 28 0 0 28 0] bytes=[52395 0 6760 0] ops=[36 0 7 0] ns=[232349284 0 48282 0] hash=4413476bd6dc5010",
	"bfs/rmat/delta/none/seed7":       "steps=7 sel=0 rounds=10 blocks=31 reacts=4 converged=true buf=[0 28 0 0 28 0] bytes=[52395 0 6760 0] ops=[36 0 7 0] ns=[232349284 0 48282 0] hash=4413476bd6dc5010",
	"bfs/rmat/delta/sixteenth/seed0":  "steps=7 sel=0 rounds=10 blocks=31 reacts=4 converged=true buf=[0 28 20 17 8 0] bytes=[52395 0 6760 0] ops=[36 0 7 0] ns=[232349284 0 48282 0] hash=4413476bd6dc5010",
	"bfs/rmat/delta/sixteenth/seed7":  "steps=7 sel=0 rounds=10 blocks=31 reacts=4 converged=true buf=[0 28 20 17 8 0] bytes=[52395 0 6760 0] ops=[36 0 7 0] ns=[232349284 0 48282 0] hash=4413476bd6dc5010",
	"bfs/rmat/delta/whole/seed0":      "steps=7 sel=0 rounds=10 blocks=31 reacts=4 converged=true buf=[12 16 16 0 0 20826] bytes=[31569 0 6760 0] ops=[24 0 7 0] ns=[136210449 0 48282 0] hash=520d7e7efc186d3d",
	"bfs/rmat/delta/whole/seed7":      "steps=7 sel=0 rounds=10 blocks=31 reacts=4 converged=true buf=[12 16 16 0 0 20826] bytes=[31569 0 6760 0] ops=[24 0 7 0] ns=[136210449 0 48282 0] hash=520d7e7efc186d3d",
	"bfs/rmat/raw/none/seed0":         "steps=7 sel=0 rounds=10 blocks=31 reacts=4 converged=true buf=[0 28 0 0 28 0] bytes=[104448 0 6760 0] ops=[36 0 7 0] ns=[232696314 0 48282 0] hash=3ae66dcb1d5c503a",
	"bfs/rmat/raw/none/seed7":         "steps=7 sel=0 rounds=10 blocks=31 reacts=4 converged=true buf=[0 28 0 0 28 0] bytes=[104448 0 6760 0] ops=[36 0 7 0] ns=[232696314 0 48282 0] hash=3ae66dcb1d5c503a",
	"bfs/rmat/raw/sixteenth/seed0":    "steps=7 sel=0 rounds=10 blocks=31 reacts=4 converged=true buf=[0 28 14 12 14 0] bytes=[104448 0 6760 0] ops=[36 0 7 0] ns=[232696314 0 48282 0] hash=3ae66dcb1d5c503a",
	"bfs/rmat/raw/sixteenth/seed7":    "steps=7 sel=0 rounds=10 blocks=31 reacts=4 converged=true buf=[0 28 14 12 14 0] bytes=[104448 0 6760 0] ops=[36 0 7 0] ns=[232696314 0 48282 0] hash=3ae66dcb1d5c503a",
	"bfs/rmat/raw/whole/seed0":        "steps=7 sel=0 rounds=10 blocks=31 reacts=4 converged=true buf=[12 16 16 0 0 46080] bytes=[58368 0 6760 0] ops=[24 0 7 0] ns=[136389114 0 48282 0] hash=92aa43d8b8e03a49",
	"bfs/rmat/raw/whole/seed7":        "steps=7 sel=0 rounds=10 blocks=31 reacts=4 converged=true buf=[12 16 16 0 0 46080] bytes=[58368 0 6760 0] ops=[24 0 7 0] ns=[136389114 0 48282 0] hash=92aa43d8b8e03a49",
	"cc/grid/delta/none/seed0":        "steps=21 sel=0 rounds=219 blocks=255 reacts=1664 converged=true buf=[0 57 0 0 57 0] bytes=[86630 0 148080 0] ops=[79 0 21 0] ns=[464577512 0 1057702 0] hash=60f7772ac55fc297",
	"cc/grid/delta/none/seed7":        "steps=19 sel=0 rounds=211 blocks=244 reacts=1408 converged=true buf=[0 52 0 0 52 0] bytes=[78863 0 142192 0] ops=[72 0 19 0] ns=[424525734 0 1015646 0] hash=d514f53d30c60803",
	"cc/grid/delta/sixteenth/seed0":   "steps=21 sel=0 rounds=219 blocks=255 reacts=1664 converged=true buf=[0 57 57 54 0 0] bytes=[86630 0 148080 0] ops=[79 0 21 0] ns=[464577512 0 1057702 0] hash=60f7772ac55fc297",
	"cc/grid/delta/sixteenth/seed7":   "steps=19 sel=0 rounds=211 blocks=244 reacts=1408 converged=true buf=[0 52 52 49 0 0] bytes=[78863 0 142192 0] ops=[72 0 19 0] ns=[424525734 0 1015646 0] hash=d514f53d30c60803",
	"cc/grid/delta/whole/seed0":       "steps=21 sel=0 rounds=219 blocks=255 reacts=1664 converged=true buf=[35 22 22 0 0 37736] bytes=[48894 0 148080 0] ops=[44 0 21 0] ns=[184325943 0 1057702 0] hash=48055641719b1b2a",
	"cc/grid/delta/whole/seed7":       "steps=19 sel=0 rounds=211 blocks=244 reacts=1408 converged=true buf=[30 22 22 0 0 32017] bytes=[46846 0 142192 0] ops=[42 0 19 0] ns=[184312291 0 1015646 0] hash=4ff465be67445490",
	"cc/grid/raw/none/seed0":          "steps=21 sel=0 rounds=219 blocks=255 reacts=1664 converged=true buf=[0 57 0 0 57 0] bytes=[150304 0 148080 0] ops=[79 0 21 0] ns=[465002012 0 1057702 0] hash=e1d54b08f2204e4b",
	"cc/grid/raw/none/seed7":          "steps=19 sel=0 rounds=211 blocks=244 reacts=1408 converged=true buf=[0 52 0 0 52 0] bytes=[136544 0 142192 0] ops=[72 0 19 0] ns=[424910280 0 1015646 0] hash=f87fdc0132087e2e",
	"cc/grid/raw/sixteenth/seed0":     "steps=21 sel=0 rounds=219 blocks=255 reacts=1664 converged=true buf=[10 47 26 19 21 3840] bytes=[146464 0 148080 0] ops=[69 0 21 0] ns=[384976412 0 1057702 0] hash=26c738116ba3bef5",
	"cc/grid/raw/sixteenth/seed7":     "steps=19 sel=0 rounds=211 blocks=244 reacts=1408 converged=true buf=[12 40 21 14 19 4608] bytes=[131936 0 142192 0] ops=[60 0 19 0] ns=[328879560 0 1015646 0] hash=f1a69279dcb6073b",
	"cc/grid/raw/whole/seed0":         "steps=21 sel=0 rounds=219 blocks=255 reacts=1664 converged=true buf=[35 22 22 0 0 77088] bytes=[73216 0 148080 0] ops=[44 0 21 0] ns=[184488092 0 1057702 0] hash=553a4070e1dee6c6",
	"cc/grid/raw/whole/seed7":         "steps=19 sel=0 rounds=211 blocks=244 reacts=1408 converged=true buf=[30 22 22 0 0 65376] bytes=[71168 0 142192 0] ops=[42 0 19 0] ns=[184474440 0 1015646 0] hash=69e0cbdf4fbb991c",
	"cc/rmat/delta/none/seed0":        "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[0 40 0 0 40 0] bytes=[65538 0 12952 0] ops=[51 0 10 0] ns=[328436897 0 92511 0] hash=e63ed62ea746be8b",
	"cc/rmat/delta/none/seed7":        "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[0 40 0 0 40 0] bytes=[65538 0 12952 0] ops=[51 0 10 0] ns=[328436897 0 92511 0] hash=e63ed62ea746be8b",
	"cc/rmat/delta/sixteenth/seed0":   "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[0 40 30 27 10 0] bytes=[65538 0 12952 0] ops=[51 0 10 0] ns=[328436897 0 92511 0] hash=e63ed62ea746be8b",
	"cc/rmat/delta/sixteenth/seed7":   "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[0 40 30 27 10 0] bytes=[65538 0 12952 0] ops=[51 0 10 0] ns=[328436897 0 92511 0] hash=e63ed62ea746be8b",
	"cc/rmat/delta/whole/seed0":       "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[24 16 16 0 0 30897] bytes=[34641 0 12952 0] ops=[27 0 10 0] ns=[136230927 0 92511 0] hash=8310e3c6cba5555e",
	"cc/rmat/delta/whole/seed7":       "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[24 16 16 0 0 30897] bytes=[34641 0 12952 0] ops=[27 0 10 0] ns=[136230927 0 92511 0] hash=8310e3c6cba5555e",
	"cc/rmat/raw/none/seed0":          "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[0 40 0 0 40 0] bytes=[128880 0 12952 0] ops=[51 0 10 0] ns=[328859191 0 92511 0] hash=113aee48a98016ba",
	"cc/rmat/raw/none/seed7":          "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[0 40 0 0 40 0] bytes=[128880 0 12952 0] ops=[51 0 10 0] ns=[328859191 0 92511 0] hash=113aee48a98016ba",
	"cc/rmat/raw/sixteenth/seed0":     "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[0 40 22 20 18 0] bytes=[128880 0 12952 0] ops=[51 0 10 0] ns=[328859191 0 92511 0] hash=113aee48a98016ba",
	"cc/rmat/raw/sixteenth/seed7":     "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[0 40 22 20 18 0] bytes=[128880 0 12952 0] ops=[51 0 10 0] ns=[328859191 0 92511 0] hash=113aee48a98016ba",
	"cc/rmat/raw/whole/seed0":         "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[24 16 16 0 0 67440] bytes=[61440 0 12952 0] ops=[27 0 10 0] ns=[136409592 0 92511 0] hash=7a7dcce627f41726",
	"cc/rmat/raw/whole/seed7":         "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[24 16 16 0 0 67440] bytes=[61440 0 12952 0] ops=[27 0 10 0] ns=[136409592 0 92511 0] hash=7a7dcce627f41726",
	"sssp/grid/delta/none/seed0":      "steps=14 sel=0 rounds=63 blocks=87 reacts=470 converged=true buf=[0 38 0 0 38 0] bytes=[59076 0 38064 0] ops=[53 0 14 0] ns=[312393826 0 271881 0] hash=7b9a578537c28b6d",
	"sssp/grid/delta/none/seed7":      "steps=14 sel=0 rounds=63 blocks=87 reacts=470 converged=true buf=[0 38 0 0 38 0] bytes=[59076 0 38064 0] ops=[53 0 14 0] ns=[312393826 0 271881 0] hash=7b9a578537c28b6d",
	"sssp/grid/delta/sixteenth/seed0": "steps=14 sel=0 rounds=63 blocks=87 reacts=470 converged=true buf=[1 37 37 34 0 225] bytes=[58851 0 38064 0] ops=[52 0 14 0] ns=[304392326 0 271881 0] hash=15513e6ffd7aa1d3",
	"sssp/grid/delta/sixteenth/seed7": "steps=14 sel=0 rounds=63 blocks=87 reacts=470 converged=true buf=[1 37 37 34 0 225] bytes=[58851 0 38064 0] ops=[52 0 14 0] ns=[304392326 0 271881 0] hash=15513e6ffd7aa1d3",
	"sssp/grid/delta/whole/seed0":     "steps=14 sel=0 rounds=63 blocks=87 reacts=470 converged=true buf=[16 22 22 0 0 17350] bytes=[41726 0 38064 0] ops=[37 0 14 0] ns=[184278161 0 271881 0] hash=68047bbd8aff4f7c",
	"sssp/grid/delta/whole/seed7":     "steps=14 sel=0 rounds=63 blocks=87 reacts=470 converged=true buf=[16 22 22 0 0 17350] bytes=[41726 0 38064 0] ops=[37 0 14 0] ns=[184278161 0 271881 0] hash=68047bbd8aff4f7c",
	"sssp/grid/raw/none/seed0":        "steps=14 sel=0 rounds=63 blocks=87 reacts=470 converged=true buf=[0 38 0 0 38 0] bytes=[101568 0 38064 0] ops=[53 0 14 0] ns=[312677110 0 271881 0] hash=50eb432ba2806ee1",
	"sssp/grid/raw/none/seed7":        "steps=14 sel=0 rounds=63 blocks=87 reacts=470 converged=true buf=[0 38 0 0 38 0] bytes=[101568 0 38064 0] ops=[53 0 14 0] ns=[312677110 0 271881 0] hash=50eb432ba2806ee1",
	"sssp/grid/raw/sixteenth/seed0":   "steps=14 sel=0 rounds=63 blocks=87 reacts=470 converged=true buf=[6 32 18 11 14 2304] bytes=[99264 0 38064 0] ops=[47 0 14 0] ns=[264661750 0 271881 0] hash=0f5b684dc60c5e2f",
	"sssp/grid/raw/sixteenth/seed7":   "steps=14 sel=0 rounds=63 blocks=87 reacts=470 converged=true buf=[6 32 18 11 14 2304] bytes=[99264 0 38064 0] ops=[47 0 14 0] ns=[264661750 0 271881 0] hash=0f5b684dc60c5e2f",
	"sssp/grid/raw/whole/seed0":       "steps=14 sel=0 rounds=63 blocks=87 reacts=470 converged=true buf=[16 22 22 0 0 35520] bytes=[66048 0 38064 0] ops=[37 0 14 0] ns=[184440310 0 271881 0] hash=45ee7c25589d2e2a",
	"sssp/grid/raw/whole/seed7":       "steps=14 sel=0 rounds=63 blocks=87 reacts=470 converged=true buf=[16 22 22 0 0 35520] bytes=[66048 0 38064 0] ops=[37 0 14 0] ns=[184440310 0 271881 0] hash=45ee7c25589d2e2a",
	"sssp/rmat/delta/none/seed0":      "steps=10 sel=0 rounds=15 blocks=45 reacts=94 converged=true buf=[0 40 0 0 40 0] bytes=[73460 0 9616 0] ops=[51 0 10 0] ns=[328489711 0 68681 0] hash=cb1d6ea78b2f4bca",
	"sssp/rmat/delta/none/seed7":      "steps=10 sel=0 rounds=15 blocks=45 reacts=94 converged=true buf=[0 40 0 0 40 0] bytes=[73460 0 9616 0] ops=[51 0 10 0] ns=[328489711 0 68681 0] hash=cb1d6ea78b2f4bca",
	"sssp/rmat/delta/sixteenth/seed0": "steps=10 sel=0 rounds=15 blocks=45 reacts=94 converged=true buf=[0 40 29 26 11 0] bytes=[73460 0 9616 0] ops=[51 0 10 0] ns=[328489711 0 68681 0] hash=cb1d6ea78b2f4bca",
	"sssp/rmat/delta/sixteenth/seed7": "steps=10 sel=0 rounds=15 blocks=45 reacts=94 converged=true buf=[0 40 29 26 11 0] bytes=[73460 0 9616 0] ops=[51 0 10 0] ns=[328489711 0 68681 0] hash=cb1d6ea78b2f4bca",
	"sssp/rmat/delta/whole/seed0":     "steps=10 sel=0 rounds=15 blocks=45 reacts=94 converged=true buf=[24 16 16 0 0 38819] bytes=[34641 0 9616 0] ops=[27 0 10 0] ns=[136230927 0 68681 0] hash=45b0c4a632ba98f0",
	"sssp/rmat/delta/whole/seed7":     "steps=10 sel=0 rounds=15 blocks=45 reacts=94 converged=true buf=[24 16 16 0 0 38819] bytes=[34641 0 9616 0] ops=[27 0 10 0] ns=[136230927 0 68681 0] hash=45b0c4a632ba98f0",
	"sssp/rmat/raw/none/seed0":        "steps=10 sel=0 rounds=15 blocks=45 reacts=94 converged=true buf=[0 40 0 0 40 0] bytes=[147348 0 9616 0] ops=[51 0 10 0] ns=[328982311 0 68681 0] hash=275fe2d9ddfbe97b",
	"sssp/rmat/raw/none/seed7":        "steps=10 sel=0 rounds=15 blocks=45 reacts=94 converged=true buf=[0 40 0 0 40 0] bytes=[147348 0 9616 0] ops=[51 0 10 0] ns=[328982311 0 68681 0] hash=275fe2d9ddfbe97b",
	"sssp/rmat/raw/sixteenth/seed0":   "steps=10 sel=0 rounds=15 blocks=45 reacts=94 converged=true buf=[0 40 21 19 19 0] bytes=[147348 0 9616 0] ops=[51 0 10 0] ns=[328982311 0 68681 0] hash=275fe2d9ddfbe97b",
	"sssp/rmat/raw/sixteenth/seed7":   "steps=10 sel=0 rounds=15 blocks=45 reacts=94 converged=true buf=[0 40 21 19 19 0] bytes=[147348 0 9616 0] ops=[51 0 10 0] ns=[328982311 0 68681 0] hash=275fe2d9ddfbe97b",
	"sssp/rmat/raw/whole/seed0":       "steps=10 sel=0 rounds=15 blocks=45 reacts=94 converged=true buf=[24 16 16 0 0 85908] bytes=[61440 0 9616 0] ops=[27 0 10 0] ns=[136409592 0 68681 0] hash=879c760422140963",
	"sssp/rmat/raw/whole/seed7":       "steps=10 sel=0 rounds=15 blocks=45 reacts=94 converged=true buf=[24 16 16 0 0 85908] bytes=[61440 0 9616 0] ops=[27 0 10 0] ns=[136409592 0 68681 0] hash=879c760422140963",
}

// asyncPinLine renders an async run's pinned outcomes on one line.
func asyncPinLine(res *core.Result) string {
	h := fnv.New64a()
	for _, st := range res.IterStats {
		h.Write([]byte(st.Path))
		binary.Write(h, binary.LittleEndian, [4]int64{int64(st.Blocks), st.Reactivations, int64(math.Float64bits(st.Residual)), st.IO.TotalBytes()})
	}
	for _, v := range res.Outputs {
		binary.Write(h, binary.LittleEndian, math.Float64bits(v))
	}
	a, b := res.Async, res.Buffer
	return fmt.Sprintf("steps=%d sel=%d rounds=%d blocks=%d reacts=%d converged=%t buf=[%d %d %d %d %d %d] bytes=%d ops=%d ns=%d hash=%016x",
		a.Steps, a.SelectiveSteps, a.Rounds, a.BlocksScheduled, a.Reactivations, res.Converged,
		b.Hits, b.Misses, b.Insertions, b.Evictions, b.Rejections, b.BytesSaved,
		res.IO.Bytes, res.IO.Ops, res.IO.Time, h.Sum64())
}

// TestAsyncSchedulePinned runs every case of pinnedAsync and holds each run
// to its line.
func TestAsyncSchedulePinned(t *testing.T) {
	rmat, err := gen.RMAT(9, 8, gen.Graph500, 13)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
		p    int
	}{
		{"grid", gen.Weighted(gen.Grid(32), 16, 5), 8},
		{"rmat", gen.Weighted(rmat, 16, 5), 4},
	}
	progs := []struct {
		name string
		mk   func() core.Program
	}{
		{"cc", func() core.Program { return &algorithms.ConnectedComponents{} }},
		{"bfs", func() core.Program { return &algorithms.BFS{Source: 0} }},
		{"sssp", func() core.Program { return &algorithms.SSSP{Source: 0} }},
	}
	got := make(map[string]string)
	for _, gc := range graphs {
		for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
			var l *partition.Layout
			for _, pc := range progs {
				for bi, buf := range []string{"none", "sixteenth", "whole"} {
					for _, seed := range []uint64{0, 7} {
						if l == nil {
							l = codecLayout(t, gc.g, gc.p, codec)
						}
						capacity := [3]int64{0, l.Meta.EdgeBytesTotal() / 16, 2 * l.Meta.EdgeBytesTotal()}[bi]
						key := fmt.Sprintf("%s/%s/%s/%s/seed%d", pc.name, gc.name, codec, buf, seed)
						res, err := core.Run(l, pc.mk(), core.Options{Async: true, AsyncSeed: seed, BufferBytes: capacity})
						if err != nil {
							t.Fatalf("%s: %v", key, err)
						}
						got[key] = asyncPinLine(res)
					}
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
