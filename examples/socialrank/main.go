// Socialrank: the paper's motivating workload — ranking a Twitter-like
// social graph — run under the paper's three systems (GraphSD, HUS-Graph,
// Lumos) with both plain PageRank and PageRank-Delta, demonstrating where
// each optimization pays off:
//
//   - on PR (every vertex active every iteration) GraphSD still wins via
//     cross-iteration updates and secondary sub-block buffering;
//
//   - on PR-D (shrinking active set) the state-aware scheduler adds
//     selective loading on top, widening the gap.
//
//     go run ./examples/socialrank
package main

import (
	"fmt"
	"log"
	"os"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/metrics"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

func main() {
	g, err := gen.RMAT(13, 16, gen.Graph500, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("twitter-like graph: %d vertices, %d edges (%s on disk)\n",
		g.NumVertices, g.NumEdges(), storage.FormatBytes(g.Bytes()))

	dir, err := os.MkdirTemp("", "graphsd-socialrank-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	const p = 8
	prof := storage.ScaledHDD

	// Preprocess once per system format; core.Run runs each layout under its
	// system's schedule.
	systems := core.Systems()
	layouts := make([]*partition.Layout, len(systems))
	for k, sys := range systems {
		layouts[k], err = sys.Build(mustDevice(dir+"/"+sys.Name, prof), g, p)
		must(err)
	}

	for _, alg := range []struct {
		name string
		mk   func() core.Program
	}{
		{"PageRank (5 iters)", func() core.Program { return &algorithms.PageRank{Iterations: 5} }},
		{"PageRank-Delta (20 iters)", func() core.Program { return &algorithms.PageRankDelta{Iterations: 20, Tolerance: 1e-6} }},
	} {
		t := metrics.NewTable(alg.name, "system", "exec time", "I/O traffic", "vs graphsd")
		var gsd *core.Result
		for k, sys := range systems {
			res, err := core.Run(layouts[k], alg.mk(), core.Options{DefaultBuffer: true})
			must(err)
			if gsd == nil {
				gsd = res // GraphSD is the table's first row
			}
			t.AddRow(sys.Name, metrics.Dur(res.ExecTime()), storage.FormatBytes(res.IO.TotalBytes()),
				metrics.Ratio(res.ExecTime(), gsd.ExecTime()))
		}
		must(t.Render(os.Stdout))
	}
}

func mustDevice(dir string, prof storage.Profile) *storage.Device {
	dev, err := storage.OpenDevice(dir, prof)
	must(err)
	return dev
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
