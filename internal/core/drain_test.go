package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// The drain under test: a label-correcting program's async step sweeps its
// row's own interval through the diagonal sub-block until the interval
// settles, then pushes across once. The rounds a drain makes follow from the
// values alone, so neither residency nor the scatter loop moves them, and a
// resumed run replays them.

// drainCase is a label-correcting program over a graph it drains on.
type drainCase struct {
	g    *graph.Graph
	prog func() core.Program
}

// drainCases pairs cc, bfs and sssp with a lattice, where a wavefront crosses
// an interval in many rounds, and with R-MAT, where a few rounds settle it.
func drainCases(t *testing.T) map[string]drainCase {
	t.Helper()
	rmat, err := gen.RMAT(10, 8, gen.Graph500, 3)
	if err != nil {
		t.Fatal(err)
	}
	lattice := gen.Grid(48)
	cc := func() core.Program { return &algorithms.ConnectedComponents{} }
	bfs := func() core.Program { return &algorithms.BFS{Source: 0} }
	sssp := func() core.Program { return &algorithms.SSSP{Source: 0} }
	return map[string]drainCase{
		"cc-lattice":   {lattice, cc},
		"bfs-lattice":  {lattice, bfs},
		"sssp-lattice": {gen.Weighted(lattice.Clone(), 16, 5), sssp},
		"cc-rmat":      {rmat, cc},
		"bfs-rmat":     {rmat, bfs},
		"sssp-rmat":    {gen.Weighted(rmat.Clone(), 16, 5), sssp},
	}
}

// requireSameSchedule fails unless got popped the rows want popped, through
// the same sweeps: steps, rounds, blocks and reactivations, and every step
// alike (requireSameSteps).
func requireSameSchedule(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	g, w := got.Async, want.Async
	if g.Steps != w.Steps || g.Rounds != w.Rounds || g.BlocksScheduled != w.BlocksScheduled || g.Reactivations != w.Reactivations {
		t.Fatalf("%s: %d steps, %d rounds, %d blocks, %d reactivations; want %d, %d, %d, %d",
			label, g.Steps, g.Rounds, g.BlocksScheduled, g.Reactivations, w.Steps, w.Rounds, w.BlocksScheduled, w.Reactivations)
	}
	requireSameSteps(t, label, got.IterStats, want.IterStats)
}

// requireSameSteps fails unless every step of got has the residual, blocks,
// active count and reactivations of want's step in its place.
func requireSameSteps(t *testing.T, label string, got, want []core.IterStat) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d steps, want %d", label, len(got), len(want))
	}
	for k, st := range got {
		ref := want[k]
		if math.Float64bits(st.Residual) != math.Float64bits(ref.Residual) || st.Blocks != ref.Blocks ||
			st.Active != ref.Active || st.Reactivations != ref.Reactivations {
			t.Fatalf("%s: step %d is (residual %v, %d blocks, %d active, %d reactivations), want (%v, %d, %d, %d)",
				label, st.Index, st.Residual, st.Blocks, st.Active, st.Reactivations, ref.Residual, ref.Blocks, ref.Active, ref.Reactivations)
		}
	}
}

// TestAsyncDrainMatchesReference: drained runs of cc, bfs and sssp reach the
// reference's labels bit for bit on both codecs, with no per-run buffer, a
// small one and one that holds the graph, through the identical steps, rounds
// and reactivations. On the lattice a drain runs many rounds a step.
func TestAsyncDrainMatchesReference(t *testing.T) {
	for name, c := range drainCases(t) {
		want, _ := core.RunReference(c.g, c.prog(), 0)
		for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
			t.Run(name+"/"+codec.String(), func(t *testing.T) {
				l := codecLayout(t, c.g, 8, codec)
				edgeBytes := l.Meta.EdgeBytesTotal()
				var base *core.Result
				for _, capacity := range []int64{0, edgeBytes / 8, 2 * edgeBytes} {
					label := fmt.Sprintf("buffer %d", capacity)
					res, err := core.Run(l, c.prog(), core.Options{Async: true, BufferBytes: capacity})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !res.Converged || res.Async.FinalResidual != 0 {
						t.Fatalf("%s: converged=%t, residual %v after %d steps", label, res.Converged, res.Async.FinalResidual, res.Async.Steps)
					}
					sameOutputBits(t, label+" vs reference", res.Outputs, want)
					if base == nil {
						base = res
						continue
					}
					requireSameSchedule(t, label, res, base)
				}
				if base.Async.Rounds < int64(base.Async.Steps) {
					t.Fatalf("%d rounds over %d steps: every step drains at least once", base.Async.Rounds, base.Async.Steps)
				}
				if c.g.NumVertices == 48*48 && base.Async.Rounds < 4*int64(base.Async.Steps) {
					t.Fatalf("lattice: %d rounds over %d steps, want a wavefront crossing its interval in many rounds a step", base.Async.Rounds, base.Async.Steps)
				}
			})
		}
	}
}

// TestAsyncDrainResumeBitIdentical kills a drained run at a step boundary in
// the middle of the run and resumes it from its checkpoint: the resumed run
// replays the uninterrupted run's remaining steps through the same sweeps and
// ends on its bits.
func TestAsyncDrainResumeBitIdentical(t *testing.T) {
	for _, name := range []string{"sssp-lattice", "cc-rmat"} {
		c := drainCases(t)[name]
		t.Run(name, func(t *testing.T) {
			const p = 8
			l := codecLayout(t, c.g, p, graph.CodecDelta)
			opts := core.Options{Async: true, DefaultBuffer: true}
			base, err := core.Run(l, c.prog(), opts)
			if err != nil {
				t.Fatal(err)
			}
			// The kill lands where a run bounded to one iteration — P steps —
			// stops, so that run counts what the killed one had done.
			kill := p
			if base.Async.Steps < kill+2 {
				t.Fatalf("run too short (%d steps) to kill mid-flight", base.Async.Steps)
			}
			bounded := opts
			bounded.MaxIterations = 1
			prefix, err := core.Run(l, c.prog(), bounded)
			if err != nil {
				t.Fatal(err)
			}
			if prefix.Async.Steps != kill {
				t.Fatalf("a run bounded to one iteration made %d steps, want %d", prefix.Async.Steps, kill)
			}

			ckDir := t.TempDir()
			ctx, powerLoss := context.WithCancel(context.Background())
			defer powerLoss()
			stopping := opts
			stopping.Checkpoint = core.CheckpointOptions{Every: 1, Dir: ckDir}
			stopping.OnIteration = func(st core.IterStat) {
				if st.Index == kill-1 {
					powerLoss()
				}
			}
			if _, err := core.RunContext(ctx, l, c.prog(), stopping); !errors.Is(err, context.Canceled) {
				t.Fatalf("killed run returned %v, want context.Canceled", err)
			}

			resuming := opts
			resuming.Checkpoint = core.CheckpointOptions{Dir: ckDir, Resume: true}
			res, err := core.Run(l, c.prog(), resuming)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Resumed || res.ResumedFrom != kill || res.Iterations != base.Iterations {
				t.Fatalf("resumed=%t from step %d, %d steps in all; want step %d, %d steps", res.Resumed, res.ResumedFrom, res.Iterations, kill, base.Iterations)
			}
			requireSameSteps(t, "resumed run vs the uninterrupted run's tail", res.IterStats, base.IterStats[kill:])
			// The counters of a resumed run cover the steps it ran itself.
			g, pre, w := res.Async, prefix.Async, base.Async
			if pre.Rounds+g.Rounds != w.Rounds || pre.BlocksScheduled+g.BlocksScheduled != w.BlocksScheduled ||
				pre.Reactivations+g.Reactivations != w.Reactivations {
				t.Fatalf("killed prefix and resumed run drained %d+%d rounds, swept %d+%d blocks, reactivated %d+%d; the uninterrupted run %d, %d, %d",
					pre.Rounds, g.Rounds, pre.BlocksScheduled, g.BlocksScheduled, pre.Reactivations, g.Reactivations, w.Rounds, w.BlocksScheduled, w.Reactivations)
			}
			requireIdenticalOutputs(t, base.Outputs, res.Outputs)
		})
	}
}

// TestAsyncHiddenKernelSameSchedule: the drain keys on Monotonic, not on the
// scatter loop, so a program whose EdgeKernel is hidden pops the same rows
// through the same sweeps to the same bits — PageRank-Delta's single sweep a
// step included.
func TestAsyncHiddenKernelSameSchedule(t *testing.T) {
	cases := drainCases(t)
	cases["prdelta-rmat"] = drainCase{cases["cc-rmat"].g, func() core.Program { return &algorithms.PageRankDelta{Iterations: 200} }}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			l := codecLayout(t, c.g, 8, graph.CodecDelta)
			opts := core.Options{Async: true, DefaultBuffer: true}
			want, err := core.Run(l, c.prog(), opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.Run(l, hideKernel(c.prog()), opts)
			if err != nil {
				t.Fatal(err)
			}
			requireSameSchedule(t, "hidden kernel", got, want)
			sameOutputBits(t, "hidden kernel", got.Outputs, want.Outputs)
			if drains := c.prog().(core.Monotonic).LabelCorrecting(); !drains && want.Async.Rounds != int64(want.Async.Steps) {
				t.Fatalf("PageRank-Delta swept %d rounds over %d steps, want one a step", want.Async.Rounds, want.Async.Steps)
			}
		})
	}
}

// TestAsyncDrainNegativeCycleEnds: a negative cycle inside an interval lowers
// its labels on every drain round, so the drain never settles on its own.
// Where the cycle drives a label below the least value the drain began with —
// a self-loop at the source does so on the first round — the drain stops at
// its next round, so every step makes one round. Where it has not yet — a
// slight cycle far from the source — the round cap ends the step. Either way
// the step bound ends the run, unconverged, as it ends a BSP run over the
// same graph, and no step makes more rounds than its interval has vertices.
func TestAsyncDrainNegativeCycleEnds(t *testing.T) {
	const p, maxIter = 4, 3
	for _, c := range []struct {
		name     string
		loop     graph.Edge
		oneRound bool // every drain stops at its second round
	}{
		{"at-source", graph.Edge{Src: 0, Dst: 0, Weight: -1}, true},
		{"far", graph.Edge{Src: 37, Dst: 37, Weight: -1.0 / 1024}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := gen.Weighted(gen.Grid(16), 16, 5)
			g.Edges = append(g.Edges, c.loop)
			l := codecLayout(t, g, p, graph.CodecDelta)
			width := 0
			for i := 0; i < p; i++ {
				lo, hi := l.Meta.Interval(i)
				width = max(width, hi-lo)
			}
			for _, async := range []bool{false, true} {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				res, err := core.RunContext(ctx, l, &algorithms.SSSP{Source: 0}, core.Options{Async: async, DefaultBuffer: true, MaxIterations: maxIter})
				cancel()
				if err != nil {
					t.Fatalf("async=%t: %v", async, err)
				}
				if res.Converged {
					t.Fatalf("async=%t: converged over a negative cycle", async)
				}
				if a := res.Async; async {
					if a.Steps > maxIter*p || a.Rounds > int64(a.Steps*width) {
						t.Fatalf("%d steps and %d rounds, want at most %d steps of at most %d rounds", a.Steps, a.Rounds, maxIter*p, width)
					}
					if c.oneRound && a.Rounds != int64(a.Steps) {
						t.Fatalf("%d rounds over %d steps, want one a step", a.Rounds, a.Steps)
					}
				}
			}
		})
	}
}

// TestAsyncDrainValueOrder: a drain whose narrow frontier re-freezes a vertex
// settles the rest of its interval in value order, so on a weighted lattice no
// vertex pops twice in a step, the pops follow the values alone — the same
// vertices in the same order at every buffer size — and the labels are the
// reference's bit for bit on both codecs. On the seek-cheap ScaledHDD profile
// some unbuffered drains read every round selectively, so their value-order
// phase is the first to take the diagonal whole. An edge that breaks the
// label-correcting rule ends a phase at the second pop of the vertex it lowers. On R-MAT 10/8 a drain switches only
// once its frontier has narrowed — a dense one keeps its rounds — and how
// many drains of a run switch is pinned.
func TestAsyncDrainValueOrder(t *testing.T) {
	lattice := gen.Weighted(gen.Grid(96), 16, 5)
	sssp := func() core.Program { return &algorithms.SSSP{Source: 0} }
	want, _ := core.RunReference(lattice, sssp(), 0)
	for _, dc := range []struct {
		name    string
		profile storage.Profile
	}{{"hdd", storage.HDD}, {"scaled-hdd", storage.ScaledHDD}} {
		for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
			t.Run("sssp-lattice/"+dc.name+"/"+codec.String(), func(t *testing.T) {
				dev, err := storage.OpenDevice(t.TempDir(), dc.profile)
				if err != nil {
					t.Fatal(err)
				}
				l, err := partition.Build(dev, lattice, 8, partition.WithCodec(codec))
				if err != nil {
					t.Fatal(err)
				}
				edgeBytes := l.Meta.EdgeBytesTotal()
				var base *core.Result
				var basePops [][]int
				for _, capacity := range []int64{0, edgeBytes / 8, 2 * edgeBytes} {
					label := fmt.Sprintf("buffer %d", capacity)
					res, pops, err := core.RunCountingPops(l, sssp(), core.Options{Async: true, BufferBytes: capacity})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameOutputBits(t, label+" vs reference", res.Outputs, want)
					switched := 0
					for k, step := range pops {
						seen := make(map[int]bool, len(step))
						for _, v := range step {
							if seen[v] {
								t.Fatalf("%s: step %d popped vertex %d twice", label, k, v)
							}
							seen[v] = true
						}
						if len(step) > 0 {
							switched++
						}
					}
					if switched == 0 {
						t.Fatalf("%s: no drain switched to value order over %d steps", label, len(pops))
					}
					if base == nil {
						base, basePops = res, pops
						continue
					}
					requireSameSchedule(t, label, res, base)
					for k := range pops {
						if !slices.Equal(pops[k], basePops[k]) {
							t.Fatalf("%s: step %d popped %d vertices, %d at buffer 0, or in another order", label, k, len(pops[k]), len(basePops[k]))
						}
					}
				}
			})
		}
	}

	// A slight negative self-loop lowers vertex 37 on every pop: the phase
	// stops at its second pop of the vertex instead of popping it until its
	// label sinks below the floor.
	t.Run("negative-loop", func(t *testing.T) {
		g := gen.Weighted(gen.Grid(16), 16, 5)
		g.Edges = append(g.Edges, graph.Edge{Src: 37, Dst: 37, Weight: -1.0 / 1024})
		l := codecLayout(t, g, 4, graph.CodecDelta)
		res, pops, err := core.RunCountingPops(l, sssp(), core.Options{Async: true, DefaultBuffer: true, MaxIterations: 3})
		if err != nil {
			t.Fatal(err)
		}
		switched := 0
		for k, step := range pops {
			n := 0
			for _, v := range step {
				if v == 37 {
					n++
				}
			}
			if n > 1 {
				t.Fatalf("step %d popped vertex 37 %d times", k, n)
			}
			switched += n
		}
		if switched == 0 || res.Converged {
			t.Fatalf("%d value-order phases popped vertex 37, converged=%t", switched, res.Converged)
		}
	})

	cases := drainCases(t)
	for name, switches := range map[string]int{"cc-rmat": 8, "bfs-rmat": 1, "sssp-rmat": 7} {
		c := cases[name]
		t.Run(name, func(t *testing.T) {
			l := codecLayout(t, c.g, 8, graph.CodecDelta)
			res, pops, err := core.RunCountingPops(l, c.prog(), core.Options{Async: true, DefaultBuffer: true})
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := core.RunReference(c.g, c.prog(), 0)
			sameOutputBits(t, "vs reference", res.Outputs, ref)
			switched := 0
			for _, step := range pops {
				if len(step) > 0 {
					switched++
				}
			}
			if switched != switches {
				t.Fatalf("%d of %d drains switched to value order, want %d", switched, len(pops), switches)
			}
		})
	}
}
