package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
)

// Async residency under test: the per-run buffer serves the async row step,
// and its capacity changes which bytes move — never which row runs, never a
// result bit. Checkpoints do not carry the buffer, so a resumed run (cold
// buffer) must replay the schedule of the run it continues.

// residencyCases pairs each monotonic program with a graph whose async run is
// long enough for blocks to be revisited: a weighted lattice for SSSP (the
// shape of the sssp_async benchmark), an R-MAT graph for CC and PageRank-Delta.
func residencyCases(t *testing.T) map[string]struct {
	g    *graph.Graph
	prog func() core.Program
} {
	t.Helper()
	rmat, err := gen.RMAT(10, 8, gen.Graph500, 3)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]struct {
		g    *graph.Graph
		prog func() core.Program
	}{
		"sssp": {gen.Weighted(gen.Grid(48), 16, 5), func() core.Program { return &algorithms.SSSP{Source: 0} }},
		"cc":   {rmat, func() core.Program { return &algorithms.ConnectedComponents{} }},
		"prd":  {rmat, func() core.Program { return &algorithms.PageRankDelta{Iterations: 400} }},
	}
}

// countBlockReads counts whole-file reads of each sub-block's edges until the
// returned stop function is called.
func countBlockReads(l *partition.Layout) (reads map[string]int, stop func()) {
	reads = make(map[string]int)
	var mu sync.Mutex
	l.Dev.SetFaultInjector(func(op, name string) error {
		if op == "read" && strings.HasSuffix(name, ".edges") {
			mu.Lock()
			reads[name]++
			mu.Unlock()
		}
		return nil
	})
	return reads, func() { l.Dev.SetFaultInjector(nil) }
}

func TestAsyncResidencyNeverChangesSchedule(t *testing.T) {
	for name, c := range residencyCases(t) {
		for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
			t.Run(name+"/"+codec.String(), func(t *testing.T) {
				l := codecLayout(t, c.g, 8, codec)
				edgeBytes := l.Meta.EdgeBytesTotal()
				var base *core.Result
				var prevBytes int64
				for _, capacity := range []int64{0, edgeBytes / 8, edgeBytes / 4, 2 * edgeBytes} {
					reads, stop := countBlockReads(l)
					res, err := core.Run(l, c.prog(), core.Options{Async: true, AsyncSeed: 7, BufferBytes: capacity})
					stop()
					if err != nil {
						t.Fatalf("capacity %d: %v", capacity, err)
					}
					if !res.Converged {
						t.Fatalf("capacity %d: not converged after %d steps", capacity, res.Async.Steps)
					}
					var streamed, fullReads int
					for _, st := range res.IterStats {
						if st.Path == "async" {
							streamed += st.Blocks
						}
					}
					for _, n := range reads {
						fullReads += n
					}
					label := fmt.Sprintf("capacity %d", capacity)
					// Every whole-block request is either a hit or a device read.
					if got := int(res.Buffer.Hits) + fullReads; got != streamed {
						t.Fatalf("%s: %d hits + %d block reads, want the %d blocks of streamed steps", label, res.Buffer.Hits, fullReads, streamed)
					}

					switch {
					case capacity == 0:
						base = res
						// Nothing is ever resident: every block of every
						// streamed step is read from the device, as before
						// the buffer served this path.
						if s := res.Buffer; s.Hits != 0 || s.BytesSaved != 0 || s.Insertions != 0 {
							t.Fatalf("%s: buffer stats %+v, want no hit and no resident", label, s)
						}
					default:
						requireIdenticalOutputs(t, base.Outputs, res.Outputs)
						if res.Async.Steps != base.Async.Steps || res.Async.BlocksScheduled != base.Async.BlocksScheduled ||
							res.Async.Reactivations != base.Async.Reactivations {
							t.Fatalf("%s moved the schedule: %+v, want %+v", label, res.Async, base.Async)
						}
						for k, st := range res.IterStats {
							want := base.IterStats[k]
							if math.Float64bits(st.Residual) != math.Float64bits(want.Residual) || st.Blocks != want.Blocks ||
								st.Active != want.Active || st.Reactivations != want.Reactivations {
								t.Fatalf("%s: step %d is (residual %v, %d blocks, %d active), want (%v, %d, %d): a different row was popped",
									label, k, st.Residual, st.Blocks, st.Active, want.Residual, want.Blocks, want.Active)
							}
						}
						if got := res.IO.TotalBytes(); got > prevBytes {
							t.Fatalf("%s moved %d device bytes, the next smaller buffer %d", label, got, prevBytes)
						}
					}
					prevBytes = res.IO.TotalBytes()

					if capacity == edgeBytes/4 && res.Buffer.Hits == 0 {
						t.Fatalf("%s: no block was served from memory (%+v)", label, res.Buffer)
					}
					if capacity >= edgeBytes {
						for name, n := range reads {
							if n > 1 {
								t.Fatalf("%s holds the whole graph, yet %s was read %d times", label, name, n)
							}
						}
						if res.Buffer.Evictions != 0 || res.Buffer.Rejections != 0 {
							t.Fatalf("%s: %+v, want no eviction and no rejection", label, res.Buffer)
						}
					}
				}
			})
		}
	}
}

// TestAsyncResidencyResumeStartsCold stops a buffered async run right before
// a step it would have served entirely from memory and resumes it: the
// resumed run has an empty buffer, so it reads that step's blocks from the
// device — and still pops the same rows in the same order, in the same number
// of steps, to the same bits.
func TestAsyncResidencyResumeStartsCold(t *testing.T) {
	c := residencyCases(t)["sssp"]
	l := codecLayout(t, c.g, 8, graph.CodecDelta)
	opts := core.Options{Async: true, BufferBytes: l.Meta.EdgeBytesTotal() / 4}
	base, err := core.Run(l, c.prog(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Every interval has the same length here, so a step's value traffic is
	// the same for every row and anything read beyond it is edge data.
	valueBytes := int64(l.Meta.IntervalLen(0)) * graph.VertexValueBytes
	warm := -1
	for _, st := range base.IterStats[8:] {
		if st.Path == "async" && st.Blocks > 0 && st.IO.ReadBytes() == valueBytes {
			warm = st.Index
			break
		}
	}
	if warm < 0 {
		t.Fatal("the uninterrupted run never served a whole step from memory: a resume would prove nothing")
	}

	ckDir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stopping := opts
	stopping.Checkpoint = core.CheckpointOptions{Every: 1, Dir: ckDir}
	stopping.OnIteration = func(st core.IterStat) {
		if st.Index == warm-1 {
			cancel()
		}
	}
	if _, err := core.RunContext(ctx, l, c.prog(), stopping); !errors.Is(err, context.Canceled) {
		t.Fatalf("stopped run returned %v, want context.Canceled", err)
	}

	resuming := opts
	resuming.Checkpoint = core.CheckpointOptions{Dir: ckDir, Resume: true}
	res, err := core.Run(l, c.prog(), resuming)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed || res.ResumedFrom != warm {
		t.Fatalf("resumed=%t from step %d, want step %d", res.Resumed, res.ResumedFrom, warm)
	}
	if first := res.IterStats[0]; first.IO.ReadBytes() <= valueBytes {
		t.Fatalf("step %d read %d bytes after the resume, no more than its %d value bytes: the buffer was not cold",
			first.Index, first.IO.ReadBytes(), valueBytes)
	}
	if res.Iterations != base.Iterations {
		t.Fatalf("resumed run took %d steps in total, the uninterrupted one %d", res.Iterations, base.Iterations)
	}
	requireIdenticalOutputs(t, base.Outputs, res.Outputs)
	tail := base.IterStats[warm:]
	if len(res.IterStats) != len(tail) {
		t.Fatalf("resumed run traced %d steps, want %d", len(res.IterStats), len(tail))
	}
	for k, st := range res.IterStats {
		if math.Float64bits(st.Residual) != math.Float64bits(tail[k].Residual) || st.Blocks != tail[k].Blocks {
			t.Fatalf("resumed step %d is (residual %v, %d blocks), uninterrupted (%v, %d)",
				st.Index, st.Residual, st.Blocks, tail[k].Residual, tail[k].Blocks)
		}
	}
	if res.Buffer.Hits == 0 {
		t.Fatal("the resumed run never warmed its buffer")
	}
}
