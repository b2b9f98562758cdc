package core_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/checkpoint"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/storage"
)

// Async engine properties under test: every monotonic program converges to
// the same fixed point the BSP engine reaches (bit-exact labels for the
// min-programs, within tolerance for PageRank-Delta), on every codec, with
// and without a buffer, under transient faults; the schedule is deterministic for
// a fixed seed; and a run resumed from a checkpoint is bit-identical to one
// that was never interrupted.

// asyncOpts returns the default async configuration for tests.
func asyncOpts() core.Options {
	return core.Options{Async: true, DefaultBuffer: true}
}

// asyncPrograms are the monotonic programs: min-label correcting (exact
// fixed point) and PageRank-Delta (fixed point within tolerance). The PRD
// iteration bound is generous so both engines run to frontier drain, not to
// the step budget.
func asyncPrograms(src graph.VertexID) map[string]func() core.Program {
	return map[string]func() core.Program{
		"prdelta": func() core.Program { return &algorithms.PageRankDelta{Iterations: 200} },
		"cc":      func() core.Program { return &algorithms.ConnectedComponents{} },
		"bfs":     func() core.Program { return &algorithms.BFS{Source: src} },
	}
}

func TestAsyncMatchesBSPFixedPoint(t *testing.T) {
	rmat, err := gen.RMAT(7, 6, gen.Graph500, 9)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"paper": paperGraph(),
		"chain": gen.Chain(40),
		"star":  gen.Star(30),
		"rmat":  rmat,
	}
	for gname, g := range graphs {
		for _, p := range []int{1, 2, 5} {
			for pname, mk := range asyncPrograms(0) {
				layout := buildLayout(t, g, p)
				base, err := core.Run(layout, mk(), core.Options{DefaultBuffer: true})
				if err != nil {
					t.Fatalf("%s/%s/p%d bsp: %v", gname, pname, p, err)
				}
				res, err := core.Run(layout, mk(), asyncOpts())
				if err != nil {
					t.Fatalf("%s/%s/p%d async: %v", gname, pname, p, err)
				}
				label := gname + "/" + pname + "/p" + string(rune('0'+p))
				if !res.Async.Enabled {
					t.Fatalf("%s: async run reported Async.Enabled=false", label)
				}
				if !res.Converged {
					t.Fatalf("%s: async run did not converge (residual %v after %d steps)",
						label, res.Async.FinalResidual, res.Async.Steps)
				}
				if pname == "prdelta" {
					compareOutputs(t, label, res.Outputs, base.Outputs, 1e-6)
				} else {
					requireIdenticalOutputs(t, base.Outputs, res.Outputs)
					if res.Async.FinalResidual != 0 {
						t.Fatalf("%s: drained min-program left residual %v", label, res.Async.FinalResidual)
					}
				}
			}
		}
	}
}

func TestAsyncSSSPMatchesBSP(t *testing.T) {
	g := gen.Weighted(gen.Chain(30), 5, 2)
	extra, err := gen.ErdosRenyi(30, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	g.Edges = append(g.Edges, gen.Weighted(extra, 9, 4).Edges...)

	layout := buildLayout(t, g, 3)
	base, err := core.Run(layout, &algorithms.SSSP{Source: 0}, core.Options{DefaultBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(layout, &algorithms.SSSP{Source: 0}, asyncOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("async sssp did not converge in %d steps", res.Async.Steps)
	}
	requireIdenticalOutputs(t, base.Outputs, res.Outputs)
}

// TestAsyncCodecSEMMatrix runs the async engine across both sub-block codecs,
// with and without a per-run buffer, against BSP runs on the same layout —
// whose buffer keeps payloads on the delta layout, the compressed tier that
// was Options.SEM. Min-program labels must be bit-identical across all four
// configurations (and to BSP); PRD must stay within tolerance of BSP.
func TestAsyncCodecSEMMatrix(t *testing.T) {
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		l := chaosLayout(t, codec, 5)
		bfsBase, err := core.Run(l, &algorithms.BFS{Source: 0}, core.Options{DefaultBuffer: true})
		if err != nil {
			t.Fatal(err)
		}
		prdBase, err := core.Run(l, &algorithms.PageRankDelta{Iterations: 400}, core.Options{DefaultBuffer: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, buffered := range []bool{false, true} {
			opts := asyncOpts()
			opts.DefaultBuffer = buffered
			label := codec.String()
			if buffered {
				label += "/buffered"
			}
			res, err := core.Run(l, &algorithms.BFS{Source: 0}, opts)
			if err != nil {
				t.Fatalf("%s bfs: %v", label, err)
			}
			requireIdenticalOutputs(t, bfsBase.Outputs, res.Outputs)

			res, err = core.Run(l, &algorithms.PageRankDelta{Iterations: 400}, opts)
			if err != nil {
				t.Fatalf("%s prd: %v", label, err)
			}
			if !res.Converged {
				t.Fatalf("%s prd: not converged after %d steps (residual %v)",
					label, res.Async.Steps, res.Async.FinalResidual)
			}
			compareOutputs(t, label+"/prd", res.Outputs, prdBase.Outputs, 1e-6)
		}
	}
}

// TestAsyncSelectivePathTaken checks that a sparse frontier actually takes
// the selective (per-vertex index) path: BFS from a single source on a
// seek-expensive device must price at least its first steps below streaming.
func TestAsyncSelectivePathTaken(t *testing.T) {
	l := chaosLayout(t, graph.CodecRaw, 5)
	base, err := core.Run(l, &algorithms.BFS{Source: 0}, core.Options{DefaultBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(l, &algorithms.BFS{Source: 0}, asyncOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Async.SelectiveSteps == 0 {
		t.Fatal("single-source BFS on a seek-heavy profile never took the selective path")
	}
	var sawSel, sawStream bool
	for _, st := range res.IterStats {
		switch st.Path {
		case "async-sel":
			sawSel = true
		case "async":
			sawStream = true
		default:
			t.Fatalf("async run emitted BSP path %q", st.Path)
		}
	}
	if !sawSel || !sawStream {
		t.Fatalf("expected both async paths exercised, got selective=%t streamed=%t", sawSel, sawStream)
	}
	requireIdenticalOutputs(t, base.Outputs, res.Outputs)
}

// TestAsyncDeterministicReplay: a fixed AsyncSeed reproduces the exact pop
// sequence and bit pattern; a different seed explores a different schedule
// but lands on the same exact fixed point for min-programs.
func TestAsyncDeterministicReplay(t *testing.T) {
	l := chaosLayout(t, graph.CodecDelta, 11)
	opts := asyncOpts()
	opts.AsyncSeed = 7
	mk := func() core.Program { return &algorithms.PageRankDelta{Iterations: 400} }

	a, err := core.Run(l, mk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Run(l, mk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalOutputs(t, a.Outputs, b.Outputs)
	if a.Async.Steps != b.Async.Steps || a.Async.BlocksScheduled != b.Async.BlocksScheduled ||
		a.Async.Reactivations != b.Async.Reactivations {
		t.Fatalf("same seed, different schedule: %+v vs %+v", a.Async, b.Async)
	}
	for i := range a.IterStats {
		if a.IterStats[i].Path != b.IterStats[i].Path {
			t.Fatalf("step %d path %q vs %q under identical seeds", i, a.IterStats[i].Path, b.IterStats[i].Path)
		}
	}

	opts.AsyncSeed = 99
	cc := func() core.Program { return &algorithms.ConnectedComponents{} }
	base, err := core.Run(l, cc(), core.Options{DefaultBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	first, err := core.Run(l, cc(), asyncOpts())
	if err != nil {
		t.Fatal(err)
	}
	other, err := core.Run(l, cc(), opts)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalOutputs(t, base.Outputs, first.Outputs)
	requireIdenticalOutputs(t, base.Outputs, other.Outputs)
}

// TestAsyncEpsilonStopsEarly: a positive AsyncEpsilon converges a PRD run
// once total pending mass falls to it, in strictly fewer steps than a full
// frontier drain.
func TestAsyncEpsilonStopsEarly(t *testing.T) {
	l := chaosLayout(t, graph.CodecRaw, 12)
	mk := func() core.Program { return &algorithms.PageRankDelta{Iterations: 400} }
	full, err := core.Run(l, mk(), asyncOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !full.Converged {
		t.Fatalf("full drain did not converge in %d steps", full.Async.Steps)
	}

	opts := asyncOpts()
	opts.AsyncEpsilon = 1e-2
	res, err := core.Run(l, mk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("epsilon run reported not converged")
	}
	if res.Async.FinalResidual > opts.AsyncEpsilon {
		t.Fatalf("stopped with residual %v above epsilon %v", res.Async.FinalResidual, opts.AsyncEpsilon)
	}
	if res.Async.Steps >= full.Async.Steps {
		t.Fatalf("epsilon run took %d steps, full drain %d", res.Async.Steps, full.Async.Steps)
	}
	// The early stop is an approximation of the same fixed point.
	compareOutputs(t, "epsilon", res.Outputs, full.Outputs, 1e-1)
}

// TestAsyncChaosBitIdentical subjects async runs to 5% transient read faults
// (recovered by device retries and pipeline degradation); outputs must be
// bit-identical to the fault-free async run on both codecs.
func TestAsyncChaosBitIdentical(t *testing.T) {
	progs := map[string]func() core.Program{
		"bfs": func() core.Program { return &algorithms.BFS{Source: 0} },
		"prd": func() core.Program { return &algorithms.PageRankDelta{Iterations: 400} },
	}
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		for pname, mk := range progs {
			t.Run(pname+"/"+codec.String(), func(t *testing.T) {
				l := chaosLayout(t, codec, 5)
				base, err := core.Run(l, mk(), asyncOpts())
				if err != nil {
					t.Fatal(err)
				}

				chaos := storage.NewChaos(storage.ChaosOptions{
					Seed:              42,
					TransientReadProb: 0.05,
					Match: func(op, name string) bool {
						return op == "read" || op == "readat"
					},
				})
				l.Dev.SetFaultInjector(chaos.Injector())
				l.Dev.SetRetryPolicy(storage.RetryPolicy{
					MaxRetries: 5,
					BaseDelay:  time.Millisecond,
					MaxDelay:   50 * time.Millisecond,
					Seed:       1,
				})
				res, err := core.Run(l, mk(), asyncOpts())
				l.Dev.SetFaultInjector(nil)
				l.Dev.SetRetryPolicy(storage.RetryPolicy{})
				if err != nil {
					t.Fatalf("async chaos run did not survive: %v", err)
				}

				if cs := chaos.Stats(); cs.Transient == 0 {
					t.Fatalf("chaos injected no faults over %d ops", cs.Ops)
				}
				if res.IO.Retries == 0 {
					t.Fatal("faults injected but device recorded no retries")
				}
				if res.Async.Steps != base.Async.Steps {
					t.Fatalf("faulty run took %d steps, fault-free %d", res.Async.Steps, base.Async.Steps)
				}
				requireIdenticalOutputs(t, base.Outputs, res.Outputs)
			})
		}
	}
}

// TestAsyncCrashResumeBitIdentical kills a checkpointed async run mid-flight
// and resumes it; the resumed run must replay the identical schedule and
// finish bit-identical to a run that was never interrupted. The crash comes
// through the run's context, at the step boundary after step 5, so it does not
// depend on the run having a device read left to fail: on the delta layout
// the buffer soon holds every block.
func TestAsyncCrashResumeBitIdentical(t *testing.T) {
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		t.Run(codec.String(), func(t *testing.T) {
			l := chaosLayout(t, codec, 7)
			mk := func() core.Program { return &algorithms.ConnectedComponents{} }
			base, err := core.Run(l, mk(), asyncOpts())
			if err != nil {
				t.Fatal(err)
			}
			if base.Async.Steps < 8 {
				t.Fatalf("run too short (%d steps) to crash mid-flight", base.Async.Steps)
			}

			ckDir := t.TempDir()
			ctx, powerLoss := context.WithCancel(context.Background())
			defer powerLoss()
			opts := asyncOpts()
			opts.Checkpoint = core.CheckpointOptions{Every: 2, Dir: ckDir}
			opts.OnIteration = func(st core.IterStat) {
				if st.Index == 5 {
					powerLoss()
				}
			}
			_, err = core.RunContext(ctx, l, mk(), opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("crashed run returned %v, want the power loss", err)
			}
			if !checkpoint.Exists(ckDir) {
				t.Fatal("no checkpoint survived the crash")
			}

			opts = asyncOpts()
			opts.Checkpoint = core.CheckpointOptions{Every: 2, Dir: ckDir, Resume: true}
			res, err := core.Run(l, mk(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Resumed || res.ResumedFrom != 6 {
				t.Fatalf("resumed=%t from step %d, want resume from step 6", res.Resumed, res.ResumedFrom)
			}
			if res.Iterations != base.Iterations {
				t.Fatalf("resumed run took %d steps total, uninterrupted took %d", res.Iterations, base.Iterations)
			}
			requireIdenticalOutputs(t, base.Outputs, res.Outputs)
		})
	}
}

// TestAsyncCheckpointModeMismatch: a BSP checkpoint cannot be resumed under
// -async and vice versa — each engine refuses the other's loop state.
func TestAsyncCheckpointModeMismatch(t *testing.T) {
	l := chaosLayout(t, graph.CodecRaw, 8)
	mk := func() core.Program { return &algorithms.PageRankDelta{Iterations: 40} }

	bspDir := t.TempDir()
	if _, err := core.Run(l, mk(), core.Options{
		Checkpoint: core.CheckpointOptions{Every: 2, Dir: bspDir},
	}); err != nil {
		t.Fatal(err)
	}
	opts := asyncOpts()
	opts.Checkpoint = core.CheckpointOptions{Dir: bspDir, Resume: true}
	_, err := core.Run(l, mk(), opts)
	if err == nil || !strings.Contains(err.Error(), "BSP engine") {
		t.Fatalf("async resumed a BSP checkpoint: %v", err)
	}

	asyncDir := t.TempDir()
	opts = asyncOpts()
	opts.Checkpoint = core.CheckpointOptions{Every: 2, Dir: asyncDir}
	if _, err := core.Run(l, mk(), opts); err != nil {
		t.Fatal(err)
	}
	_, err = core.Run(l, mk(), core.Options{
		Checkpoint: core.CheckpointOptions{Dir: asyncDir, Resume: true},
	})
	if err == nil || !strings.Contains(err.Error(), "async engine") {
		t.Fatalf("BSP resumed an async checkpoint: %v", err)
	}
}

// TestAsyncRejectsUnsupported: non-monotonic programs are refused at run
// start, not silently misexecuted.
func TestAsyncRejectsUnsupported(t *testing.T) {
	l := chaosLayout(t, graph.CodecRaw, 9)
	_, err := core.Run(l, &algorithms.PageRank{Iterations: 3}, asyncOpts())
	if err == nil || !strings.Contains(err.Error(), "not monotonic") {
		t.Fatalf("plain pagerank accepted under async: %v", err)
	}
}

// TestRunContextCancelsPromptly: cancelling the run context aborts the run
// within roughly one block's work, even while the prefetch pipeline is
// blocked inside a slow device read — the contract behind NextCtx. Covered
// for both the BSP passes and the async scheduler.
func TestRunContextCancelsPromptly(t *testing.T) {
	runs := map[string]struct {
		prog func() core.Program
		opts core.Options
	}{
		"bsp":   {func() core.Program { return &algorithms.PageRank{Iterations: 8} }, core.Options{DefaultBuffer: true}},
		"async": {func() core.Program { return &algorithms.ConnectedComponents{} }, asyncOpts()},
	}
	for name, cfg := range runs {
		t.Run(name, func(t *testing.T) {
			l := chaosLayout(t, graph.CodecRaw, 6)
			var reads atomic.Int64
			l.Dev.SetFaultInjector(func(op, name string) error {
				if op == "read" && strings.HasPrefix(name, "blocks/") {
					reads.Add(1)
					time.Sleep(50 * time.Millisecond)
				}
				return nil
			})
			defer l.Dev.SetFaultInjector(nil)

			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			start := time.Now()
			go func() {
				_, err := core.RunContext(ctx, l, cfg.prog(), cfg.opts)
				done <- err
			}()
			time.Sleep(200 * time.Millisecond)
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled run returned %v, want context.Canceled", err)
				}
			case <-time.After(3 * time.Second):
				t.Fatalf("run still going %v after cancel (%d slow reads served)", time.Since(start), reads.Load())
			}
		})
	}
}
