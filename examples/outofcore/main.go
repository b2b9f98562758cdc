// Outofcore: the bounded-memory pipeline end to end, the way the system
// would process a graph that never fits in RAM:
//
//  1. the input arrives as a binary edge stream (graph.BinaryStream) and is
//     partitioned by the external preprocessor, which spills per-interval
//     runs to disk and never holds more than one grid row (that is exactly
//     how P is chosen);
//
//  2. the engine runs with a priority buffer of a quarter of the edge data
//     and reads sub-blocks ahead of the compute on its block stream, whose
//     window bounds what is resident beyond the buffer;
//
//  3. an I/O trace records every device operation, and its summary shows
//     the access pattern is overwhelmingly sequential — the whole point of
//     an out-of-core design.
//
//     go run ./examples/outofcore
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/iotrace"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

func main() {
	dir, err := os.MkdirTemp("", "graphsd-outofcore-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Stage the input as a binary file, then forget the in-memory graph:
	// everything downstream consumes the file as a stream.
	g, err := gen.RMAT(13, 12, gen.Graph500, 99)
	if err != nil {
		log.Fatal(err)
	}
	rawPath := filepath.Join(dir, "input.bin")
	rawFile, err := os.Create(rawPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := graph.WriteBinary(rawFile, g); err != nil {
		log.Fatal(err)
	}
	rawFile.Close()
	fmt.Printf("staged %d vertices / %d edges to %s\n", g.NumVertices, g.NumEdges(), rawPath)
	numVertices := g.NumVertices
	g = nil // the rest of the pipeline must not touch the in-memory graph

	// External preprocessing from the stream, bounded by one grid row.
	in, err := os.Open(rawPath)
	if err != nil {
		log.Fatal(err)
	}
	defer in.Close()
	stream, err := graph.NewBinaryStream(in)
	if err != nil {
		log.Fatal(err)
	}
	dev, err := storage.OpenDevice(filepath.Join(dir, "layout"), storage.ScaledHDD)
	if err != nil {
		log.Fatal(err)
	}
	layout, err := partition.BuildExternal(dev, stream, numVertices, stream.Weighted, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("external preprocessing done: P=%d, %s of edge data\n",
		layout.Meta.P, storage.FormatBytes(layout.Meta.EdgeBytesTotal()))

	// Trace every device operation during the run.
	tracePath := filepath.Join(dir, "run.trace")
	traceFile, err := os.Create(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	rec := iotrace.NewRecorder(traceFile)
	rec.Attach(dev)

	res, err := core.Run(layout, &algorithms.PageRankDelta{Iterations: 20, Tolerance: 1e-6}, core.Options{
		DefaultBuffer: true,
		PrefetchBytes: 1 << 20, // at most 1 MiB of sub-blocks read ahead
	})
	if err != nil {
		log.Fatal(err)
	}
	dev.SetTracer(nil)
	if err := rec.Close(); err != nil {
		log.Fatal(err)
	}
	traceFile.Close()
	fmt.Printf("run: %v\n\n", res)

	// Summarize the access pattern.
	tf, err := os.Open(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	defer tf.Close()
	sum, err := iotrace.Analyze(tf, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("I/O trace summary (top 5 files):")
	if err := sum.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
