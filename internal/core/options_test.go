package core_test

import (
	"os"
	"path/filepath"
	"strings"
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

// TestCheckpointFailureFailsRun: a run that cannot publish its checkpoints
// fails, naming the checkpoint, under either schedule — whether the failure
// comes back from a later step's image or, for a run's only image, from the
// drain at its return.
func TestCheckpointFailureFailsRun(t *testing.T) {
	layout := buildLayout(t, gen.Chain(40), 2)
	dir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, async := range map[string]bool{"bsp": false, "async": true} {
		for _, maxIter := range []int{0, 1} {
			_, err := core.Run(layout, &algorithms.BFS{Source: 0}, core.Options{
				Async:         async,
				MaxIterations: maxIter,
				Checkpoint:    core.CheckpointOptions{Every: 1, Dir: dir},
			})
			if err == nil || !strings.Contains(err.Error(), "checkpoint") {
				t.Fatalf("%s, MaxIterations %d: run with an unwritable checkpoint directory returned %v", name, maxIter, err)
			}
		}
	}
}
