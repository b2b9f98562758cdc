package core_test

import (
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
)

// TestDifferentAlgorithmsShareOneLayout: a layout is algorithm-agnostic;
// running PR, CC and BFS back to back over the same on-disk grid must give
// each algorithm its oracle results.
func TestDifferentAlgorithmsShareOneLayout(t *testing.T) {
	g, err := gen.RMAT(8, 8, gen.Graph500, 33)
	if err != nil {
		t.Fatal(err)
	}
	layout := buildLayout(t, g, 4)

	progs := []func() core.Program{
		func() core.Program { return &algorithms.PageRank{Iterations: 4} },
		func() core.Program { return &algorithms.ConnectedComponents{} },
		func() core.Program { return &algorithms.BFS{Source: 0} },
		func() core.Program { return &algorithms.Reachability{Source: 0} },
	}
	for _, mk := range progs {
		want, _ := core.RunReference(g, mk(), 0)
		res, err := core.Run(layout, mk(), core.Options{DefaultBuffer: true})
		if err != nil {
			t.Fatal(err)
		}
		compareOutputs(t, res.Algorithm, res.Outputs, want, 1e-9)
	}
}

// TestSequentialRunsDoNotLeakSchedulerState: each Run gets a fresh
// scheduler; decision traces must not accumulate across runs.
func TestSequentialRunsDoNotLeakSchedulerState(t *testing.T) {
	layout := buildLayout(t, gen.Chain(30), 2)
	first, err := core.Run(layout, &algorithms.BFS{Source: 0}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := core.Run(layout, &algorithms.BFS{Source: 0}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Decisions) != len(first.Decisions) {
		t.Fatalf("decision trace leaked: %d vs %d", len(second.Decisions), len(first.Decisions))
	}
	if second.Decisions[0].Iteration != 0 {
		t.Fatalf("second run's first decision has iteration %d", second.Decisions[0].Iteration)
	}
}
