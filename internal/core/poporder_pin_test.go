package core_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
)

// pinnedPopOrder holds, per case, how many vertices the value-order phases
// popped and a hash of every step's popped vertices in pop order. The cases
// run on delta layouts at P=8 under the default buffer. TestAsyncSchedulePinned
// holds what the steps counted; this holds the order the phases popped in, so
// a change to the phase's queue that reorders ties or stale entries shows here.
var pinnedPopOrder = map[string]string{
	"bfs-lattice128":  "steps=8 pops=16384 hash=d2bf698cc9e568f5",
	"bfs-rmat":        "steps=14 pops=171 hash=97cfe4f0107dcfa3",
	"cc-lattice128":   "steps=8 pops=2040 hash=c8069533e8e72d7a",
	"cc-rmat":         "steps=13 pops=60 hash=a9c0a0ccb06e0d23",
	"sssp-chain":      "steps=8 pops=4096 hash=3347b9821cc8b05d",
	"sssp-lattice128": "steps=20 pops=18461 hash=afe12865fcea2af4",
	"sssp-rmat":       "steps=22 pops=221 hash=167f5c74ac47b14c",
}

// TestAsyncPopOrderPinned runs sssp over the benchmark's weighted 128×128
// lattice and a weighted 4 096-chain, bfs and cc over the unweighted lattice,
// whose integer levels and shared labels pop long runs of ties, and the R-MAT
// cases of drainCases, and holds each run's popped-vertex sequences to its
// line.
func TestAsyncPopOrderPinned(t *testing.T) {
	sssp := func() core.Program { return &algorithms.SSSP{Source: 0} }
	lattice := gen.Grid(128)
	cases := map[string]drainCase{
		"sssp-lattice128": {gen.Weighted(lattice.Clone(), 16, 3), sssp},
		"bfs-lattice128":  {lattice, func() core.Program { return &algorithms.BFS{Source: 0} }},
		"cc-lattice128":   {lattice, func() core.Program { return &algorithms.ConnectedComponents{} }},
		"sssp-chain":      {gen.Weighted(gen.Chain(4096), 7, 11), sssp},
	}
	for _, name := range []string{"cc-rmat", "bfs-rmat", "sssp-rmat"} {
		cases[name] = drainCases(t)[name]
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			l := codecLayout(t, c.g, 8, graph.CodecDelta)
			res, pops, err := core.RunCountingPops(l, c.prog(), core.Options{Async: true, DefaultBuffer: true})
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			n := 0
			for k, step := range pops {
				binary.Write(h, binary.LittleEndian, [2]int64{int64(k), int64(len(step))})
				for _, v := range step {
					binary.Write(h, binary.LittleEndian, uint32(v))
				}
				n += len(step)
			}
			got := fmt.Sprintf("steps=%d pops=%d hash=%016x", len(pops), n, h.Sum64())
			if int64(n) != res.Async.Popped {
				t.Fatalf("%d vertices popped, Popped says %d", n, res.Async.Popped)
			}
			if want := pinnedPopOrder[name]; got != want {
				t.Errorf("%q: %q,", name, got)
			}
		})
	}
}
