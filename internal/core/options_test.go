package core_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
)

// TestOnIterationHook: under either schedule the hook fires once per
// IterStat, in order, and a checkpoint is written every Every steps. The
// chain is cut into 8 intervals: an async BFS step drains its interval's
// stretch of the chain and pushes into the next, so it takes one step an
// interval, and 8 steps make two checkpoints at Every=3.
func TestOnIterationHook(t *testing.T) {
	for name, async := range map[string]bool{"bsp": false, "async": true} {
		t.Run(name, func(t *testing.T) {
			layout := buildLayout(t, gen.Chain(40), 8)
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

// TestIterStatWallCoversComputeAndStall: the consumer computes and stalls one
// after the other, so a step's wall-clock holds both, and the steps of a run
// take no more than its wall-clock between them — under either schedule, over a
// prefetch pipeline (PageRank's dense passes) and inline streams (SSSP's run
// views).
func TestIterStatWallCoversComputeAndStall(t *testing.T) {
	rmat, err := gen.RMAT(9, 8, gen.Graph500, 23)
	if err != nil {
		t.Fatal(err)
	}
	lattice := codecLayout(t, gen.Weighted(gen.Grid(48), 16, 3), 4, graph.CodecDelta)
	for _, c := range []struct {
		name   string
		layout *partition.Layout
		prog   core.Program
		opts   core.Options
	}{
		{"pr-bsp", codecLayout(t, rmat, 4, graph.CodecDelta), &algorithms.PageRank{Iterations: 4}, core.Options{ForceModel: core.ForceFull}},
		{"sssp-bsp", lattice, &algorithms.SSSP{Source: 0}, core.Options{ForceModel: core.ForceFull, DefaultBuffer: true}},
		{"sssp-async", lattice, &algorithms.SSSP{Source: 0}, core.Options{Async: true, DefaultBuffer: true}},
	} {
		res, err := core.Run(c.layout, c.prog, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		var sum time.Duration
		for _, st := range res.IterStats {
			if st.Wall < st.ComputeTime+st.Pipeline.Stall {
				t.Errorf("%s: step %d (%s) wall %v < compute %v + stall %v", c.name, st.Index, st.Path, st.Wall, st.ComputeTime, st.Pipeline.Stall)
			}
			sum += st.Wall
		}
		if sum <= 0 || sum > res.WallTime {
			t.Errorf("%s: steps' wall %v, run's %v", c.name, sum, res.WallTime)
		}
		if res.Pipeline.Stall <= 0 {
			t.Errorf("%s: no stall recorded: %+v", c.name, res.Pipeline)
		}
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
