package core_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/checkpoint"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// Chaos harness: seeded probabilistic fault injection over full engine runs.
// The contract under test is the tentpole of the fault-tolerance work: a run
// subjected to transient read faults (recovered by device retries and
// pipeline degradation) must produce results bit-identical to a fault-free
// run, on every update path and codec; and a run killed mid-stream must
// resume from its checkpoint to the same final values.

func requireIdenticalOutputs(t *testing.T, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("output length %d, want %d", len(got), len(want))
	}
	for v := range want {
		if math.Float64bits(want[v]) != math.Float64bits(got[v]) {
			t.Fatalf("vertex %d: output %v differs from fault-free %v", v, got[v], want[v])
		}
	}
}

func chaosLayout(t *testing.T, codec graph.Codec, seed int64) *partition.Layout {
	t.Helper()
	dev, err := storage.OpenDevice(t.TempDir(), storage.ScaledHDD)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.RMAT(9, 8, gen.Graph500, seed)
	if err != nil {
		t.Fatal(err)
	}
	l, err := partition.Build(dev, g, 4, partition.WithCodec(codec))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestChaosRunsBitIdentical injects transient read faults into every
// combination of update path (FCIU via PageRank, SCIU via on-demand BFS) and
// sub-block codec, and requires the faulty run to converge to outputs
// bit-identical to the fault-free baseline, with the recovery machinery
// demonstrably exercised (device retries observed).
func TestChaosRunsBitIdentical(t *testing.T) {
	paths := []struct {
		name string
		prog func() core.Program
		opts core.Options
	}{
		{"fciu", func() core.Program { return &algorithms.PageRank{Iterations: 6} }, core.Options{}},
		{"sciu", func() core.Program { return &algorithms.BFS{Source: 0} }, core.Options{ForceModel: core.ForceOnDemand}},
	}
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		for _, p := range paths {
			t.Run(p.name+"/"+codec.String(), func(t *testing.T) {
				l := chaosLayout(t, codec, 5)
				base, err := core.Run(l, p.prog(), p.opts)
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
				res, err := core.Run(l, p.prog(), p.opts)
				l.Dev.SetFaultInjector(nil)
				l.Dev.SetRetryPolicy(storage.RetryPolicy{})
				if err != nil {
					t.Fatalf("chaos run did not survive: %v", err)
				}

				cs := chaos.Stats()
				if cs.Transient == 0 {
					t.Fatalf("chaos injected no faults over %d ops — harness not exercised", cs.Ops)
				}
				if res.IO.Retries == 0 {
					t.Fatal("faults injected but device recorded no retries")
				}
				if res.Iterations != base.Iterations || res.Converged != base.Converged {
					t.Fatalf("faulty run: %d iters converged=%t, fault-free: %d iters converged=%t",
						res.Iterations, res.Converged, base.Iterations, base.Converged)
				}
				requireIdenticalOutputs(t, base.Outputs, res.Outputs)
			})
		}
	}
}

// TestOnDemandPageRankMatchesFull pins the order SCIU's cross-iteration
// scatter feeds a destination its sources in: PageRank sums in edge order, so
// on-demand and full-I/O runs agree bit for bit only while every destination
// sees its sources in vertex order on both paths. TestChaosRunsBitIdentical
// catches a change to that order only when its faults flip a PageRank run onto
// SCIU; this runs SCIU on every iteration.
func TestOnDemandPageRankMatchesFull(t *testing.T) {
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		t.Run(codec.String(), func(t *testing.T) {
			l := chaosLayout(t, codec, 5)
			full, err := core.Run(l, &algorithms.PageRank{Iterations: 6}, core.Options{ForceModel: core.ForceFull})
			if err != nil {
				t.Fatal(err)
			}
			onDemand, err := core.Run(l, &algorithms.PageRank{Iterations: 6}, core.Options{ForceModel: core.ForceOnDemand})
			if err != nil {
				t.Fatal(err)
			}
			if onDemand.Iterations != full.Iterations {
				t.Fatalf("on-demand ran %d iterations, full %d", onDemand.Iterations, full.Iterations)
			}
			requireIdenticalOutputs(t, full.Outputs, onDemand.Outputs)
		})
	}
}

// TestFCIUPipelineDegradesToSync proves the prefetch pipeline degrades to
// synchronous loads — counted in Pipeline.Fallbacks — rather than cancelling
// the run, when a prefetched sub-block read faults transiently and the
// device itself has no retry budget.
func TestFCIUPipelineDegradesToSync(t *testing.T) {
	l := chaosLayout(t, graph.CodecRaw, 6)
	base, err := core.Run(l, &algorithms.PageRank{Iterations: 4}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var fired atomic.Bool
	l.Dev.SetFaultInjector(func(op, name string) error {
		if op == "read" && strings.HasPrefix(name, "blocks/") && fired.CompareAndSwap(false, true) {
			return storage.Transient(errors.New("cosmic ray"))
		}
		return nil
	})
	res, err := core.Run(l, &algorithms.PageRank{Iterations: 4}, core.Options{})
	l.Dev.SetFaultInjector(nil)
	if err != nil {
		t.Fatalf("run did not degrade past transient pipeline fault: %v", err)
	}
	if res.Pipeline.Fallbacks == 0 {
		t.Fatal("transient pipeline fault recorded no fallbacks")
	}
	requireIdenticalOutputs(t, base.Outputs, res.Outputs)
}

// TestSCIUPipelineDegradesToSync is the same contract for the selective
// (on-demand) path: a transient fault in a prefetched selective load drops
// the iteration to synchronous per-vertex reads mid-stream.
func TestSCIUPipelineDegradesToSync(t *testing.T) {
	l := chaosLayout(t, graph.CodecDelta, 6)
	opts := core.Options{ForceModel: core.ForceOnDemand}
	prog := func() core.Program { return &algorithms.BFS{Source: 0} }
	base, err := core.Run(l, prog(), opts)
	if err != nil {
		t.Fatal(err)
	}

	var fired atomic.Bool
	l.Dev.SetFaultInjector(func(op, name string) error {
		if op == "readat" && fired.CompareAndSwap(false, true) {
			return storage.Transient(errors.New("bus glitch"))
		}
		return nil
	})
	res, err := core.Run(l, prog(), opts)
	l.Dev.SetFaultInjector(nil)
	if err != nil {
		t.Fatalf("sciu run did not degrade past transient fault: %v", err)
	}
	if res.Pipeline.Fallbacks == 0 {
		t.Fatal("transient sciu fault recorded no fallbacks")
	}
	requireIdenticalOutputs(t, base.Outputs, res.Outputs)
}

// TestCrashAndResumeBitIdentical kills a checkpointed run mid-flight (every
// device op fails permanently after iteration 3) and resumes it from the
// checkpoint written at the iteration-4 boundary; the resumed run must
// finish with outputs bit-identical to a run that was never interrupted,
// across both codecs, including across an FCIU second-phase boundary.
func TestCrashAndResumeBitIdentical(t *testing.T) {
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		t.Run(codec.String(), func(t *testing.T) {
			l := chaosLayout(t, codec, 7)
			prog := func() core.Program { return &algorithms.PageRank{Iterations: 8} }
			base, err := core.Run(l, prog(), core.Options{})
			if err != nil {
				t.Fatal(err)
			}

			ckDir := t.TempDir()
			power := errors.New("power loss")
			_, err = core.Run(l, prog(), core.Options{
				Checkpoint: core.CheckpointOptions{Every: 2, Dir: ckDir},
				OnIteration: func(st core.IterStat) {
					if st.Index == 3 {
						l.Dev.SetFaultInjector(func(op, name string) error { return power })
					}
				},
			})
			l.Dev.SetFaultInjector(nil)
			if !errors.Is(err, power) {
				t.Fatalf("crashed run returned %v, want injected power loss", err)
			}
			if !checkpoint.Exists(ckDir) {
				t.Fatal("no checkpoint survived the crash")
			}

			res, err := core.Run(l, prog(), core.Options{
				Checkpoint: core.CheckpointOptions{Every: 2, Dir: ckDir, Resume: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Resumed || res.ResumedFrom != 4 {
				t.Fatalf("resumed=%t from %d, want resume from iteration 4", res.Resumed, res.ResumedFrom)
			}
			if res.Iterations != base.Iterations {
				t.Fatalf("resumed run ran %d iterations, uninterrupted ran %d", res.Iterations, base.Iterations)
			}
			if res.Checkpoints == 0 {
				t.Fatal("resumed run wrote no further checkpoints")
			}
			requireIdenticalOutputs(t, base.Outputs, res.Outputs)
		})
	}
}

// TestResumeValidation covers the resume edge cases under both schedules: an
// empty directory starts fresh; a checkpoint from another algorithm, another
// layout shape or the other schedule is refused; a corrupted newest image
// resumes from the one before it, bit-identically; and with every image
// corrupted the run fails instead of silently restarting.
func TestResumeValidation(t *testing.T) {
	for name, async := range map[string]bool{"bsp": false, "async": true} {
		t.Run(name, func(t *testing.T) {
			l := chaosLayout(t, graph.CodecRaw, 8)
			ckDir := t.TempDir()
			prog := func() core.Program { return &algorithms.PageRankDelta{Iterations: 40} }
			resume := func(l *partition.Layout, p core.Program, async bool) error {
				_, err := core.Run(l, p, core.Options{
					Async:      async,
					Checkpoint: core.CheckpointOptions{Dir: ckDir, Resume: true},
				})
				return err
			}

			res, err := core.Run(l, prog(), core.Options{
				Async:      async,
				Checkpoint: core.CheckpointOptions{Every: 2, Dir: ckDir, Resume: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Resumed {
				t.Fatal("run resumed from an empty checkpoint dir")
			}
			if res.Checkpoints == 0 {
				t.Fatal("checkpointed run wrote no checkpoints")
			}

			err = resume(l, &algorithms.ConnectedComponents{}, async)
			if err == nil || !strings.Contains(err.Error(), `checkpoint is for algorithm "pagerank-delta", running "cc"`) {
				t.Fatalf("pagerank-delta checkpoint resumed by cc: %v", err)
			}

			dev, err := storage.OpenDevice(t.TempDir(), storage.ScaledHDD)
			if err != nil {
				t.Fatal(err)
			}
			g, err := gen.RMAT(9, 8, gen.Graph500, 8)
			if err != nil {
				t.Fatal(err)
			}
			other, err := partition.Build(dev, g, 2)
			if err != nil {
				t.Fatal(err)
			}
			err = resume(other, prog(), async)
			if err == nil || !strings.Contains(err.Error(), "checkpoint shape 512 vertices / P=4, layout has 512 / P=2") {
				t.Fatalf("P=4 checkpoint resumed on a P=2 layout: %v", err)
			}

			err = resume(l, prog(), !async)
			if want := map[bool]string{false: "taken by the BSP engine", true: "taken by the async engine"}[async]; err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("checkpoint resumed under the other schedule: %v", err)
			}

			if res.Checkpoints < 2 {
				t.Fatalf("checkpointed run took %d images, want one in each slot", res.Checkpoints)
			}
			slots := [2]string{checkpoint.Path(ckDir), checkpoint.SparePath(ckDir)}
			iters := [2]int{slotIteration(t, slots[0]), slotIteration(t, slots[1])}
			newest := 0
			if iters[1] > iters[0] {
				newest = 1
			}
			corrupt := func(path string) {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)-1] ^= 0xff
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			corrupt(slots[newest])
			again, err := core.Run(l, prog(), core.Options{
				Async:      async,
				Checkpoint: core.CheckpointOptions{Dir: ckDir, Resume: true},
			})
			if err != nil {
				t.Fatalf("newest image corrupt: %v", err)
			}
			if !again.Resumed || again.ResumedFrom != iters[1-newest] {
				t.Fatalf("newest image (step %d) corrupt: resumed=%t from %d, want the image before it, step %d",
					iters[newest], again.Resumed, again.ResumedFrom, iters[1-newest])
			}
			requireIdenticalOutputs(t, res.Outputs, again.Outputs)

			corrupt(slots[1-newest])
			err = resume(l, prog(), async)
			if err == nil || !strings.Contains(err.Error(), "crc32c") {
				t.Fatalf("corrupt checkpoint resumed: %v", err)
			}
		})
	}
}

// slotIteration returns the step of the image in the checkpoint slot at path,
// read on its own.
func slotIteration(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(checkpoint.Path(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	ci, err := checkpoint.Inspect(dir)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return ci.Iteration
}

// TestFreshRunClearsEarlierImages: a run that does not resume, over a
// directory whose images an earlier, longer run left at higher steps, never
// leaves Load returning one of those once its own first image is on disk —
// not during the run, not after a crash, not after it returns.
func TestFreshRunClearsEarlierImages(t *testing.T) {
	for name, async := range map[string]bool{"bsp": false, "async": true} {
		t.Run(name, func(t *testing.T) {
			l := chaosLayout(t, graph.CodecRaw, 8)
			ckDir := t.TempDir()
			prog := func() core.Program { return &algorithms.PageRankDelta{Iterations: 40} }
			earlier, err := core.Run(l, prog(), core.Options{
				Async:      async,
				Checkpoint: core.CheckpointOptions{Every: 1, Dir: ckDir},
			})
			if err != nil {
				t.Fatal(err)
			}
			const steps = 4
			if earlier.Iterations <= steps+1 {
				t.Fatalf("earlier run took %d steps, want more than %d", earlier.Iterations, steps+1)
			}

			// Image n is on disk once Put n+1 returns, before step n+1's
			// OnIteration; a newer image or none yet is fine, an older one or
			// one past the step is the earlier run's.
			loaded := func() (int, error) {
				ck, err := checkpoint.Load(ckDir)
				if err != nil {
					return -1, err
				}
				return ck.Iteration, nil
			}
			check := func(step int) {
				at, err := loaded()
				if step == 0 && err != nil {
					return
				}
				if err != nil || at < step || at > step+1 {
					t.Fatalf("after step %d Load holds image %d (error %v), want this run's image %d or %d", step+1, at, err, step, step+1)
				}
			}
			power := errors.New("power loss")
			_, err = core.Run(l, prog(), core.Options{
				Async:      async,
				Checkpoint: core.CheckpointOptions{Every: 1, Dir: ckDir},
				OnIteration: func(st core.IterStat) {
					check(st.Index)
					if st.Index == steps-1 {
						l.Dev.SetFaultInjector(func(op, name string) error { return power })
					}
				},
			})
			l.Dev.SetFaultInjector(nil)
			if !errors.Is(err, power) {
				t.Fatalf("crashed run returned %v, want injected power loss", err)
			}
			if at, err := loaded(); err != nil || at != steps {
				t.Fatalf("after the crash Load holds image %d (error %v), want the crashed run's image %d", at, err, steps)
			}

			res, err := core.Run(l, prog(), core.Options{
				Async:         async,
				MaxIterations: steps,
				Checkpoint:    core.CheckpointOptions{Every: 1, Dir: ckDir},
				OnIteration:   func(st core.IterStat) { check(st.Index) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if at, err := loaded(); err != nil || at != res.Iterations {
				t.Fatalf("after the run Load holds image %d (error %v), want its last image %d", at, err, res.Iterations)
			}
		})
	}
}

// TestGoldenCheckpointsResume resumes the two checkpoints in testdata, which
// the commit before the engine-core merge wrote — one by its BSP loop (at an
// FCIU second-half boundary), one by its async loop — and requires outputs
// bit-identical to an uninterrupted run, which in turn must write the same
// bytes at that step: the single capture/restore reads what the two old pairs
// wrote, and writes it. The files were written on amd64; a platform that
// fuses multiply-adds may round PR-Delta differently.
func TestGoldenCheckpointsResume(t *testing.T) {
	golden := []struct {
		file string
		prog func() core.Program
		opts core.Options
		from int
	}{
		{"ckpt_bsp.bin", func() core.Program { return &algorithms.PageRankDelta{Iterations: 12} },
			core.Options{ForceModel: core.ForceFull, DefaultBuffer: true, Threads: 1}, 3},
		{"ckpt_async.bin", func() core.Program { return &algorithms.PageRankDelta{Iterations: 200} },
			core.Options{Async: true, DefaultBuffer: true, Threads: 1}, 8},
	}
	for _, c := range golden {
		t.Run(c.file, func(t *testing.T) {
			dev, err := storage.OpenDevice(t.TempDir(), storage.ScaledHDD)
			if err != nil {
				t.Fatal(err)
			}
			g, err := gen.RMAT(8, 8, gen.Graph500, 21)
			if err != nil {
				t.Fatal(err)
			}
			l, err := partition.Build(dev, g, 4)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile("testdata/" + c.file)
			if err != nil {
				t.Fatal(err)
			}
			// A run stopped right after the checkpoint at the same step must
			// write the very bytes the old loop wrote there: its return
			// drains the background writer.
			ckDir := t.TempDir()
			opts := c.opts
			opts.Checkpoint = core.CheckpointOptions{Every: c.from, Dir: ckDir}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts.OnIteration = func(st core.IterStat) {
				if st.Index == c.from-1 {
					cancel()
				}
			}
			if _, err := core.RunContext(ctx, l, c.prog(), opts); !errors.Is(err, context.Canceled) {
				t.Fatalf("stopped run returned %v, want context.Canceled", err)
			}
			if now, err := os.ReadFile(checkpoint.Path(ckDir)); err != nil || !bytes.Equal(now, data) {
				t.Errorf("checkpoint after step %d differs from testdata/%s (read error: %v)", c.from, c.file, err)
			}
			opts.OnIteration = nil
			base, err := core.Run(l, c.prog(), opts)
			if err != nil {
				t.Fatal(err)
			}

			// Alone in the directory: the uninterrupted run left newer images.
			if err := checkpoint.Remove(ckDir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(checkpoint.Path(ckDir), data, 0o644); err != nil {
				t.Fatal(err)
			}
			opts = c.opts
			opts.Checkpoint = core.CheckpointOptions{Dir: ckDir, Resume: true}
			res, err := core.Run(l, c.prog(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Resumed || res.ResumedFrom != c.from {
				t.Fatalf("resumed=%t from %d, want resume from step %d", res.Resumed, res.ResumedFrom, c.from)
			}
			if res.Iterations != base.Iterations || len(res.IterStats) != base.Iterations-c.from {
				t.Fatalf("resumed run: %d steps total, %d run here; uninterrupted took %d", res.Iterations, len(res.IterStats), base.Iterations)
			}
			requireIdenticalOutputs(t, base.Outputs, res.Outputs)
		})
	}
}
