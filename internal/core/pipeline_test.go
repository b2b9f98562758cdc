package core_test

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/storage"
)

// The I/O pipeline must be invisible to the computation: prefetched runs
// produce bit-identical outputs to synchronous runs, because sub-blocks are
// consumed in exactly the same order either way.

func pipelineTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(10, 10, gen.Graph500, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEnginePrefetchEquivalence(t *testing.T) {
	g := pipelineTestGraph(t)
	variants := map[string]core.Options{
		"sync":          {PrefetchDepth: -1},
		"default":       {},
		"deep":          {PrefetchDepth: 8},
		"tiny-window":   {PrefetchDepth: 2, PrefetchBytes: 1024},
		"sync-buffered": {PrefetchDepth: -1, DefaultBuffer: true},
		"buffered":      {DefaultBuffer: true},
	}
	for pname, mk := range testPrograms(0) {
		var base []float64
		for _, vname := range []string{"sync", "default", "deep", "tiny-window", "sync-buffered", "buffered"} {
			opts := variants[vname]
			layout := buildLayoutProf(t, g, 4, storage.ScaledHDD)
			res, err := core.Run(layout, mk(), opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", pname, vname, err)
			}
			if base == nil {
				base = res.Outputs
				continue
			}
			// Same consumption order either way: results must be
			// bit-identical, not merely close.
			compareOutputs(t, pname+"/"+vname, res.Outputs, base, 0)
		}
	}
}

func TestEnginePrefetchStats(t *testing.T) {
	g := pipelineTestGraph(t)

	layout := buildLayoutProf(t, g, 4, storage.ScaledHDD)
	res, err := core.Run(layout, &algorithms.PageRank{Iterations: 3}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pipeline.Blocks == 0 || res.Pipeline.Bytes == 0 {
		t.Fatalf("pipelined run recorded no prefetches: %+v", res.Pipeline)
	}
	if res.Pipeline.Fetch == 0 {
		t.Fatalf("pipelined run recorded no fetch time: %+v", res.Pipeline)
	}
	sum := 0
	for _, st := range res.IterStats {
		sum += st.Pipeline.Blocks
	}
	if sum != res.Pipeline.Blocks {
		t.Fatalf("per-iteration blocks sum %d, run total %d", sum, res.Pipeline.Blocks)
	}

	layout = buildLayoutProf(t, g, 4, storage.ScaledHDD)
	res, err = core.Run(layout, &algorithms.PageRank{Iterations: 3}, core.Options{PrefetchDepth: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pipeline != (core.Result{}).Pipeline {
		t.Fatalf("synchronous run recorded pipeline activity: %+v", res.Pipeline)
	}
}

// TestEnginePrefetchErrorMidStream fails the k-th sub-block read while
// several later fetches are already in flight; the engine must surface the
// injected error (not a cancellation artifact) and shut the pipeline down
// without hanging.
func TestEnginePrefetchErrorMidStream(t *testing.T) {
	boom := errors.New("mid-stream read failure")
	for _, failAt := range []int32{1, 3, 6} {
		l := faultLayout(t)
		var reads int32
		l.Dev.SetFaultInjector(func(op, name string) error {
			if strings.HasPrefix(name, "blocks/") && strings.HasSuffix(name, ".edges") && op == "read" {
				if atomic.AddInt32(&reads, 1) == failAt {
					return boom
				}
			}
			return nil
		})
		_, err := core.Run(l, &algorithms.PageRank{Iterations: 3}, core.Options{PrefetchDepth: 4})
		if !errors.Is(err, boom) {
			t.Fatalf("failAt=%d: fault not surfaced: %v", failAt, err)
		}
	}
}
