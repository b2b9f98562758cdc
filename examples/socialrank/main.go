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
	"github.com/graphsd/graphsd/internal/baseline"
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

	// Preprocess once per system format.
	gsdDev := mustDevice(dir+"/graphsd", prof)
	gsdLayout, err := partition.Build(gsdDev, g, p)
	must(err)
	husDev := mustDevice(dir+"/husgraph", prof)
	husLayout, err := partition.BuildHUSGraph(husDev, g, p)
	must(err)
	lumDev := mustDevice(dir+"/lumos", prof)
	lumLayout, err := partition.BuildLumos(lumDev, g, p)
	must(err)

	for _, alg := range []struct {
		name string
		mk   func() core.Program
	}{
		{"PageRank (5 iters)", func() core.Program { return &algorithms.PageRank{Iterations: 5} }},
		{"PageRank-Delta (20 iters)", func() core.Program { return &algorithms.PageRankDelta{Iterations: 20, Tolerance: 1e-6} }},
	} {
		t := metrics.NewTable(alg.name, "system", "exec time", "I/O traffic", "vs graphsd")
		gsd, err := core.Run(gsdLayout, alg.mk(), core.Options{DefaultBuffer: true})
		must(err)
		t.AddRow("graphsd", metrics.Dur(gsd.ExecTime()), storage.FormatBytes(gsd.IO.TotalBytes()), "1.00x")

		hus, err := baseline.RunHUSGraph(husLayout, alg.mk(), baseline.Options{})
		must(err)
		t.AddRow("husgraph", metrics.Dur(hus.ExecTime()), storage.FormatBytes(hus.IO.TotalBytes()),
			metrics.Ratio(hus.ExecTime(), gsd.ExecTime()))

		lum, err := baseline.RunLumos(lumLayout, alg.mk(), baseline.Options{})
		must(err)
		t.AddRow("lumos", metrics.Dur(lum.ExecTime()), storage.FormatBytes(lum.IO.TotalBytes()),
			metrics.Ratio(lum.ExecTime(), gsd.ExecTime()))

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
