package core_test

import (
	"math"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

func codecLayout(t *testing.T, g *graph.Graph, p int, codec graph.Codec) *partition.Layout {
	t.Helper()
	dev, err := storage.OpenDevice(t.TempDir(), storage.HDD)
	if err != nil {
		t.Fatal(err)
	}
	l, err := partition.Build(dev, g, p, partition.WithCodec(codec))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestEngineOutputsIdenticalAcrossCodecs: the codec is an encoding detail —
// every engine path must produce bit-identical outputs on raw and delta
// layouts.
func TestEngineOutputsIdenticalAcrossCodecs(t *testing.T) {
	rmat, err := gen.RMAT(8, 8, gen.Graph500, 19)
	if err != nil {
		t.Fatal(err)
	}
	weighted := gen.Weighted(rmat, 16, 5)

	cases := []struct {
		name string
		g    *graph.Graph
		prog func() core.Program
		opts core.Options
	}{
		{"pagerank/default", rmat,
			func() core.Program { return &algorithms.PageRank{Iterations: 5} },
			core.Options{DefaultBuffer: true}},
		{"bfs/on-demand", rmat,
			func() core.Program { return &algorithms.BFS{Source: 0} },
			core.Options{ForceModel: core.ForceOnDemand}},
		{"bfs/full", rmat,
			func() core.Program { return &algorithms.BFS{Source: 0} },
			core.Options{ForceModel: core.ForceFull}},
		{"sssp/weighted", weighted,
			func() core.Program { return &algorithms.SSSP{Source: 0} },
			core.Options{DefaultBuffer: true}},
		{"prdelta/no-prefetch", rmat,
			func() core.Program { return &algorithms.PageRankDelta{Iterations: 10} },
			core.Options{PrefetchDepth: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const p = 4
			rawRes, err := core.Run(codecLayout(t, tc.g, p, graph.CodecRaw), tc.prog(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			deltaRes, err := core.Run(codecLayout(t, tc.g, p, graph.CodecDelta), tc.prog(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if rawRes.Iterations != deltaRes.Iterations || rawRes.Converged != deltaRes.Converged {
				t.Fatalf("run shape differs: raw %d/%t vs delta %d/%t",
					rawRes.Iterations, rawRes.Converged, deltaRes.Iterations, deltaRes.Converged)
			}
			for v := range rawRes.Outputs {
				if math.Float64bits(rawRes.Outputs[v]) != math.Float64bits(deltaRes.Outputs[v]) {
					t.Fatalf("vertex %d: raw %v vs delta %v", v, rawRes.Outputs[v], deltaRes.Outputs[v])
				}
			}
			if rawRes.Codec != "raw" || deltaRes.Codec != "delta" {
				t.Fatalf("result codecs: %q / %q", rawRes.Codec, deltaRes.Codec)
			}
		})
	}
}

// TestDeltaLowersEngineTraffic: the simulated device moves on-disk bytes, so
// a delta layout's full-model runs must report less read traffic than raw —
// at least 2x less on an unweighted power-law graph — and record the
// compression ratio and decode time in the result.
func TestDeltaLowersEngineTraffic(t *testing.T) {
	g, err := gen.RMAT(9, 8, gen.Graph500, 29)
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	prog := func() core.Program { return &algorithms.PageRank{Iterations: 4} }
	opts := core.Options{ForceModel: core.ForceFull}
	rawRes, err := core.Run(codecLayout(t, g, p, graph.CodecRaw), prog(), opts)
	if err != nil {
		t.Fatal(err)
	}
	deltaRes, err := core.Run(codecLayout(t, g, p, graph.CodecDelta), prog(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Both runs read the same vertex-value bytes; the edge share must shrink
	// enough that total read traffic is well below raw.
	rawReads, deltaReads := rawRes.IO.ReadBytes(), deltaRes.IO.ReadBytes()
	if deltaReads >= rawReads {
		t.Fatalf("delta read traffic %d not below raw %d", deltaReads, rawReads)
	}
	if deltaRes.CompressRatio < 2 {
		t.Fatalf("compression ratio %.2f below 2x", deltaRes.CompressRatio)
	}
	if deltaRes.DecodeTime <= 0 {
		t.Fatal("delta run reported no decode time")
	}
	if rawRes.CompressRatio != 1 {
		t.Fatalf("raw compression ratio = %v", rawRes.CompressRatio)
	}
}

// TestBufferBytesSavedAreDeviceBytes: Buffer.BytesSaved is on-disk bytes. On a
// delta layout — where a block occupies 2–5× more decoded than on the device —
// what a buffered full-model run reports saved is exactly what it read less
// than the same run without a buffer, in the decoded tier (a raw layout) and
// in the payload tier (a delta layout) alike.
func TestBufferBytesSavedAreDeviceBytes(t *testing.T) {
	g, err := gen.RMAT(9, 8, gen.Graph500, 29)
	if err != nil {
		t.Fatal(err)
	}
	prog := func() core.Program { return &algorithms.PageRank{Iterations: 6} }
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		t.Run("fciu/"+codec.String(), func(t *testing.T) {
			l := codecLayout(t, g, 4, codec)
			opts := core.Options{ForceModel: core.ForceFull}
			without, err := core.Run(l, prog(), opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.BufferBytes = 2 * l.Meta.EdgeBytesTotal()
			with, err := core.Run(l, prog(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if without.Buffer.BytesSaved != 0 || with.Buffer.Hits == 0 {
				t.Fatalf("buffer stats without %+v, with %+v", without.Buffer, with.Buffer)
			}
			if avoided := without.IO.ReadBytes() - with.IO.ReadBytes(); with.Buffer.BytesSaved != avoided {
				t.Fatalf("BytesSaved %d, but the buffered run read %d bytes fewer (%d against %d)",
					with.Buffer.BytesSaved, avoided, with.IO.ReadBytes(), without.IO.ReadBytes())
			}
		})
	}
}
