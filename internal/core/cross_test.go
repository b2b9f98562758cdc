package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
)

// handOffs adds up the cross scatters a run's passes handed to the helper.
func handOffs(steps []core.CrossStep) int {
	n := 0
	for _, st := range steps {
		n += st.HandOffs
	}
	return n
}

// TestCrossHandOff: a dense FCIU first pass hands its iteration t+1 scatters
// to the helper goroutine, and the run still computes what the oracle does, to
// the same bits at GOMAXPROCS 1 and 4 — PageRank over a warm raw shared cache
// (the pr_fit shape), and over a per-run buffer of delta payloads with release
// poisoning on, so that a helper scattering from a block after its release
// fails the run. A narrow pass takes run views and hands nothing over.
func TestCrossHandOff(t *testing.T) {
	g, err := gen.RMAT(11, 16, gen.Graph500, 3)
	if err != nil {
		t.Fatal(err)
	}
	pr := func() core.Program { return &algorithms.PageRank{Iterations: 6} }
	want, _ := core.RunReference(g, pr(), 0)
	l := codecLayout(t, g, 8, graph.CodecDelta)
	shared := buffer.NewShared(2 * l.Meta.EdgeBytesTotal())
	if _, err := core.Run(l, pr(), core.Options{SharedBlocks: shared}); err != nil { // warms the cache
		t.Fatal(err)
	}
	for name, opts := range map[string]core.Options{
		"warm-shared-cache": {SharedBlocks: shared},
		"payload-buffer":    {BufferBytes: l.Meta.EdgeBytesTotal() / 8},
	} {
		var first []float64
		for _, procs := range []int{1, 4} {
			label := fmt.Sprintf("%s GOMAXPROCS=%d", name, procs)
			prev := runtime.GOMAXPROCS(procs)
			res, steps, err := core.RunCountingHandOffs(l, pr(), opts, true)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if handOffs(steps) == 0 {
				t.Errorf("%s: no cross scatter was handed to the helper", label)
			}
			compareOutputs(t, label, res.Outputs, want, 1e-9)
			if first == nil {
				first = res.Outputs
			}
			bitIdentical(t, label+" vs GOMAXPROCS=1", res.Outputs, first)
		}
	}

	// BFS from one vertex: the first passes' frontiers are narrow, and on a
	// delta layout they take run views.
	bfs := &algorithms.BFS{Source: 0}
	res, steps, err := core.RunCountingHandOffs(l, bfs, core.Options{ForceModel: core.ForceFull}, true)
	if err != nil {
		t.Fatal(err)
	}
	narrow := 0
	for k, st := range res.IterStats {
		if steps[k].Views > 0 && st.Path == "fciu-1" {
			narrow++
			if steps[k].HandOffs != 0 {
				t.Errorf("iteration %d (%d active): %d run views and %d hand-offs, want none on a narrow pass", k, st.Active, steps[k].Views, steps[k].HandOffs)
			}
		}
	}
	if narrow == 0 {
		t.Fatalf("no BFS fciu-1 pass took run views: %d iterations", len(res.IterStats))
	}
	wantBFS, _ := core.RunReference(g, &algorithms.BFS{Source: 0}, 0)
	compareOutputs(t, "bfs", res.Outputs, wantBFS, 0)
}

// TestCrossHandOffRaceFree runs PageRank-Delta and CC, whose filters are not
// whole rows, through the helper over a layout whose intervals do not start on
// a word of the frontier: 1 000 vertices in three intervals, so that two
// intervals share each boundary word of newActive while the engine applies one
// and the helper reads the other. Under -race this is the check that the
// helper reads no word the engine writes; everywhere it is the check that the
// outputs are the oracle's.
func TestCrossHandOffRaceFree(t *testing.T) {
	g, err := gen.ErdosRenyi(1000, 8000, 5)
	if err != nil {
		t.Fatal(err)
	}
	l := buildLayout(t, g, 3)
	if lo, _ := l.Meta.Interval(1); lo%64 == 0 {
		t.Fatalf("interval 1 starts at vertex %d, on a word boundary", lo)
	}
	for name, mk := range map[string]func() core.Program{
		"prd": func() core.Program { return &algorithms.PageRankDelta{Iterations: 10} },
		"cc":  func() core.Program { return &algorithms.ConnectedComponents{} },
	} {
		want, _ := core.RunReference(g, mk(), 0)
		res, steps, err := core.RunCountingHandOffs(l, mk(), core.Options{ForceModel: core.ForceFull}, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if handOffs(steps) == 0 {
			t.Errorf("%s: no cross scatter was handed to the helper", name)
		}
		compareOutputs(t, name, res.Outputs, want, 1e-9)
	}
}
