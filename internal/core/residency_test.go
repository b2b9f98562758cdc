package core_test

import (
	"context"
	"errors"
	"fmt"
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

// residencyCases pairs label-correcting programs with graphs whose async run is
// long enough for blocks to be revisited: a weighted lattice for SSSP (the
// shape of the sssp_async benchmark), an R-MAT graph for CC and BFS.
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
		"bfs":  {rmat, func() core.Program { return &algorithms.BFS{Source: 0} }},
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
					res, _, plans, err := core.RunCountingPlanViews(l, c.prog(), core.Options{Async: true, BufferBytes: capacity})
					stop()
					if err != nil {
						t.Fatalf("capacity %d: %v", capacity, err)
					}
					if !res.Converged {
						t.Fatalf("capacity %d: not converged after %d steps", capacity, res.Async.Steps)
					}
					var planned, fullReads int
					for _, ps := range plans {
						for _, p := range ps {
							planned += len(p.Cells)
						}
					}
					for _, n := range reads {
						fullReads += n
					}
					label := fmt.Sprintf("capacity %d", capacity)
					// Every cell of every fetch plan is taken once — a drain's
					// diagonal once a step, however many rounds sweep it — and
					// each take asks the buffer once: a hit or else one device
					// read.
					if int64(fullReads) != res.Buffer.Misses {
						t.Fatalf("%s: %d block reads for %d misses", label, fullReads, res.Buffer.Misses)
					}
					if takes := res.Buffer.Hits + res.Buffer.Misses; takes != int64(planned) {
						t.Fatalf("%s: %d hits + %d block reads, want the %d cells of the fetch plans", label, res.Buffer.Hits, fullReads, planned)
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
						if res.Async.Steps != base.Async.Steps || res.Async.Rounds != base.Async.Rounds ||
							res.Async.BlocksScheduled != base.Async.BlocksScheduled || res.Async.Reactivations != base.Async.Reactivations {
							t.Fatalf("%s moved the schedule: %+v, want %+v", label, res.Async, base.Async)
						}
						for k, st := range res.IterStats {
							want := base.IterStats[k]
							if st.ActiveAfter != want.ActiveAfter || st.Blocks != want.Blocks ||
								st.Active != want.Active || st.Reactivations != want.Reactivations {
								t.Fatalf("%s: step %d is (%d active after, %d blocks, %d active), want (%d, %d, %d): a different row was popped",
									label, k, st.ActiveAfter, st.Blocks, st.Active, want.ActiveAfter, want.Blocks, want.Active)
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

// torus is the side×side 4-neighbour lattice with its edges wrapped around at
// the borders, weighted. Cut into intervals of whole lattice rows it looks the
// same from every interval: every grid row of sub-blocks has the same shape,
// and so the same on-disk bytes under either codec.
func torus(side int) *graph.Graph {
	g := &graph.Graph{NumVertices: side * side}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			for _, d := range [][2]int{{1, 0}, {side - 1, 0}, {0, 1}, {0, side - 1}} {
				g.Edges = append(g.Edges, graph.Edge{Src: graph.VertexID(r*side + c), Dst: graph.VertexID((r+d[0])%side*side + (c+d[1])%side)})
			}
		}
	}
	return gen.Weighted(g, 16, 5)
}

// TestAsyncPayloadResidency: on a delta layout the async row step keeps the
// verified payloads, and which form the buffer holds changes bytes, never the
// schedule. Async over one torus as a delta layout whose buffer keeps
// payloads, the same layout with no buffer, and a raw layout (whose buffer
// keeps decoded edges) must give bit-identical outputs through the identical
// pop sequence: every step's active-after count, blocks, active count and
// reactivations. SSSP runs over a torus, and cc over R-MAT 10/8: cc pops each
// torus row once, so its buffer would never serve a block.
func TestAsyncPayloadResidency(t *testing.T) {
	rmat, err := gen.RMAT(10, 8, gen.Graph500, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]drainCase{
		"sssp": {torus(48), func() core.Program { return &algorithms.SSSP{Source: 0} }},
		"cc":   {gen.Weighted(rmat, 16, 5), func() core.Program { return &algorithms.ConnectedComponents{} }},
	} {
		prog := c.prog
		t.Run(name, func(t *testing.T) {
			delta := codecLayout(t, c.g, 8, graph.CodecDelta)
			raw := codecLayout(t, c.g, 8, graph.CodecRaw)
			run := func(l *partition.Layout, capacity int64) *core.Result {
				res, err := core.Run(l, prog(), core.Options{Async: true, BufferBytes: capacity})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			payloads := run(delta, delta.Meta.EdgeBytesTotal()/4)
			if s := payloads.SEM; s.CompressedHits == 0 || s.CompressedBytes == 0 || s.EffectiveCapacityRatio() <= 1 {
				t.Fatalf("delta layout: compressed tier %+v, want payloads kept and served", s)
			}
			unbuffered := run(delta, 0)
			if got, want := payloads.IO.TotalBytes(), unbuffered.IO.TotalBytes(); got >= want {
				t.Fatalf("payload residents moved %d device bytes, no buffer %d", got, want)
			}
			for other, res := range map[string]*core.Result{"unbuffered delta": unbuffered, "raw": run(raw, raw.Meta.EdgeBytesTotal()/4)} {
				requireIdenticalOutputs(t, res.Outputs, payloads.Outputs)
				if len(res.IterStats) != len(payloads.IterStats) || res.Async.Reactivations != payloads.Async.Reactivations {
					t.Fatalf("%s: %+v, payload residents %+v", other, res.Async, payloads.Async)
				}
				for k, st := range payloads.IterStats {
					want := res.IterStats[k]
					if st.ActiveAfter != want.ActiveAfter || st.Blocks != want.Blocks ||
						st.Active != want.Active || st.Reactivations != want.Reactivations {
						t.Fatalf("step %d is (%d active after, %d blocks, %d active), %s (%d, %d, %d): a different row was popped",
							k, st.ActiveAfter, st.Blocks, st.Active, other, want.ActiveAfter, want.Blocks, want.Active)
					}
				}
			}
		})
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
		if st.ActiveAfter != tail[k].ActiveAfter || st.Blocks != tail[k].Blocks {
			t.Fatalf("resumed step %d is (%d active after, %d blocks), uninterrupted (%d, %d)",
				st.Index, st.ActiveAfter, st.Blocks, tail[k].ActiveAfter, tail[k].Blocks)
		}
	}
	if res.Buffer.Hits == 0 {
		t.Fatal("the resumed run never warmed its buffer")
	}
}
