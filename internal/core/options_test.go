package core_test

import (
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
)

// TestOnIterationHook: under either schedule the hook fires once per
// IterStat, in order, and a checkpoint is written every Every steps.
func TestOnIterationHook(t *testing.T) {
	for name, async := range map[string]bool{"bsp": false, "async": true} {
		t.Run(name, func(t *testing.T) {
			layout := buildLayout(t, gen.Chain(40), 2)
			var seen []core.IterStat
			res, err := core.Run(layout, &algorithms.BFS{Source: 0}, core.Options{
				Async:       async,
				Checkpoint:  core.CheckpointOptions{Every: 3, Dir: t.TempDir()},
				OnIteration: func(st core.IterStat) { seen = append(seen, st) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != res.Iterations || len(res.IterStats) != res.Iterations {
				t.Fatalf("hook fired %d times, %d IterStats, for %d iterations", len(seen), len(res.IterStats), res.Iterations)
			}
			for i, st := range seen {
				if st.Index != i {
					t.Fatalf("hook %d got index %d", i, st.Index)
				}
			}
			if res.Iterations < 3 || res.Checkpoints != res.Iterations/3 {
				t.Fatalf("%d checkpoints over %d steps at Every=3", res.Checkpoints, res.Iterations)
			}
		})
	}
}

func TestSCIUCacheBudgetPreservesCorrectness(t *testing.T) {
	// A tiny cross-iteration cache budget disables most prescattering;
	// results must be unchanged, only more edges re-read.
	g, err := gen.RMAT(8, 8, gen.Graph500, 12)
	if err != nil {
		t.Fatal(err)
	}
	prog := func() core.Program { return &algorithms.ConnectedComponents{} }
	want, _ := core.RunReference(g, prog(), 0)

	for _, budget := range []int64{0, 1, 64, 1 << 20} {
		layout := buildLayout(t, g, 4)
		res, err := core.Run(layout, prog(), core.Options{
			ForceModel:      core.ForceOnDemand,
			SCIUCacheBudget: budget,
		})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		compareOutputs(t, "budget", res.Outputs, want, 1e-9)
	}
}

func TestSCIUCacheBudgetIncreasesIO(t *testing.T) {
	// With prescattering suppressed by a 1-byte budget, re-activated
	// vertices' edges must be re-read next iteration: traffic can only
	// grow (or stay equal when no vertex ever re-activates).
	g, err := gen.Clustered(4, 30, 200, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	layoutA := buildLayout(t, g, 3)
	unlimited, err := core.Run(layoutA, &algorithms.ConnectedComponents{}, core.Options{ForceModel: core.ForceOnDemand})
	if err != nil {
		t.Fatal(err)
	}
	layoutB := buildLayout(t, g, 3)
	starved, err := core.Run(layoutB, &algorithms.ConnectedComponents{}, core.Options{
		ForceModel:      core.ForceOnDemand,
		SCIUCacheBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if starved.IO.ReadBytes() < unlimited.IO.ReadBytes() {
		t.Fatalf("starved cache read less (%d) than unlimited (%d)",
			starved.IO.ReadBytes(), unlimited.IO.ReadBytes())
	}
}
