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

// Async engine properties under test: every label-correcting program converges
// to the fixed point the BSP engine reaches, bit for bit, on every codec, with
// and without a buffer, under transient faults; every other program is refused;
// the schedule is deterministic; and a run resumed from a checkpoint is
// bit-identical to one that was never interrupted.

// asyncOpts returns the default async configuration for tests.
func asyncOpts() core.Options {
	return core.Options{Async: true, DefaultBuffer: true}
}

// asyncPrograms are the unweighted label-correcting programs, whose fixed
// point is exact.
func asyncPrograms(src graph.VertexID) map[string]func() core.Program {
	return map[string]func() core.Program{
		"cc":  func() core.Program { return &algorithms.ConnectedComponents{} },
		"bfs": func() core.Program { return &algorithms.BFS{Source: src} },
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
					t.Fatalf("%s: async run did not converge (%d active after %d steps)",
						label, res.Async.FinalActive, res.Async.Steps)
				}
				requireIdenticalOutputs(t, base.Outputs, res.Outputs)
				if res.Async.FinalActive != 0 {
					t.Fatalf("%s: drained run left %d vertices active", label, res.Async.FinalActive)
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
// was Options.SEM. BFS labels must be bit-identical across all four
// configurations (and to BSP).
func TestAsyncCodecSEMMatrix(t *testing.T) {
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		l := chaosLayout(t, codec, 5)
		bfsBase, err := core.Run(l, &algorithms.BFS{Source: 0}, core.Options{DefaultBuffer: true})
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
		}
	}
}

// TestAsyncDeterministicReplay: a second run reproduces the exact pop
// sequence and bit pattern of the first.
func TestAsyncDeterministicReplay(t *testing.T) {
	l := chaosLayout(t, graph.CodecDelta, 11)
	opts := asyncOpts()
	mk := func() core.Program { return &algorithms.ConnectedComponents{} }

	a, err := core.Run(l, mk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Run(l, mk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalOutputs(t, a.Outputs, b.Outputs)
	requireSameSchedule(t, "second run", b, a)
}

// TestAsyncChaosBitIdentical subjects async runs to 5% transient read faults
// (recovered by device retries and pipeline degradation); outputs must be
// bit-identical to the fault-free async run on both codecs.
func TestAsyncChaosBitIdentical(t *testing.T) {
	progs := map[string]func() core.Program{
		"bfs": func() core.Program { return &algorithms.BFS{Source: 0} },
		"cc":  func() core.Program { return &algorithms.ConnectedComponents{} },
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
// the buffer soon holds every block. The layout has P=8, so cc, which starts
// with every vertex active, pops each row at least once.
func TestAsyncCrashResumeBitIdentical(t *testing.T) {
	g, err := gen.RMAT(9, 8, gen.Graph500, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		t.Run(codec.String(), func(t *testing.T) {
			l := codecLayout(t, g, 8, codec)
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
			requireSameSteps(t, "resumed run", res.IterStats, base.IterStats[res.ResumedFrom:])
			requireIdenticalOutputs(t, base.Outputs, res.Outputs)
		})
	}
}

// TestAsyncCheckpointModeMismatch: a BSP checkpoint cannot be resumed under
// -async and vice versa — each engine refuses the other's loop state.
func TestAsyncCheckpointModeMismatch(t *testing.T) {
	l := chaosLayout(t, graph.CodecRaw, 8)
	mk := func() core.Program { return &algorithms.ConnectedComponents{} }

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

// TestAsyncRejectsUnsupported runs every program algorithms.ByName accepts
// under async: exactly the label-correcting ones run, and every other is
// refused at run start, with an error that says to run it without -async,
// not silently misexecuted.
func TestAsyncRejectsUnsupported(t *testing.T) {
	l := buildLayout(t, gen.Weighted(gen.Grid(8), 16, 5), 2)
	runs := map[string]bool{"cc": true, "sssp": true, "bfs": true}
	ran := 0
	for _, name := range strings.Split(algorithms.Names, ", ") {
		if runs[name] {
			ran++
		}
		t.Run(name, func(t *testing.T) {
			prog, err := algorithms.ByName(name, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(l, prog, asyncOpts())
			if runs[name] {
				if err != nil || !res.Async.Enabled {
					t.Errorf("%s under async: %v", name, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "run it without -async") {
				t.Errorf("%s accepted under async, or refused without saying what to do: %v", name, err)
			}
		})
	}
	if ran != len(runs) {
		t.Errorf("algorithms.Names lists %d of cc, sssp and bfs: %s", ran, algorithms.Names)
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
