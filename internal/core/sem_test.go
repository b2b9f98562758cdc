package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/checkpoint"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// State-aware skipping and compressed-tier equivalence suite. The contract:
// skipping the sub-blocks of a source interval with no active vertex is an I/O
// optimisation only — with the I/O model pinned, a run must produce outputs
// bit-identical to one that reads every cell (core.RunAllRowsLive) on every
// path and codec, while demonstrably skipping dead sub-blocks on sparse
// frontiers — and Options.SEM, the compressed buffer tier, changes no output
// either.

// semOn returns opts with the compressed buffer tier enabled.
func semOn(opts core.Options) core.Options {
	opts.SEM = true
	return opts
}

func TestSEMBitIdenticalAndSkips(t *testing.T) {
	bfs := func() core.Program { return &algorithms.BFS{Source: 0} }
	paths := []struct {
		name string
		prog func() core.Program
		opts core.Options
		// sparse full-model paths must record skips and read strictly fewer
		// device bytes; SCIU never reads a dead row's cells in the first place.
		wantSkips bool
	}{
		{"fciu", bfs, core.Options{ForceModel: core.ForceFull}, true},
		{"full-single", bfs, core.Options{ForceModel: core.ForceFull, DisableCrossIteration: true}, true},
		{"sciu", bfs, core.Options{ForceModel: core.ForceOnDemand}, false},
		{"fciu-dense", func() core.Program { return &algorithms.PageRank{Iterations: 5} },
			core.Options{ForceModel: core.ForceFull}, false},
	}
	buffers := []struct {
		name string
		set  func(*core.Options)
	}{
		{"nobuffer", func(*core.Options) {}},
		{"buffer", func(o *core.Options) { o.DefaultBuffer = true }},
		{"buffer-sem", func(o *core.Options) { o.DefaultBuffer, o.SEM = true, true }},
	}
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		for _, p := range paths {
			for _, b := range buffers {
				for _, depth := range []int{0, -1} {
					opts := p.opts
					b.set(&opts)
					opts.PrefetchDepth = depth
					t.Run(fmt.Sprintf("%s/%s/%s/depth=%d", p.name, codec, b.name, depth), func(t *testing.T) {
						all, err := core.RunAllRowsLive(chaosLayout(t, codec, 11), p.prog(), opts)
						if err != nil {
							t.Fatal(err)
						}
						res, err := core.Run(chaosLayout(t, codec, 11), p.prog(), opts)
						if err != nil {
							t.Fatal(err)
						}
						if res.Iterations != all.Iterations || res.Converged != all.Converged {
							t.Fatalf("skipping run: %d iters converged=%t, all rows live: %d iters converged=%t",
								res.Iterations, res.Converged, all.Iterations, all.Converged)
						}
						requireIdenticalOutputs(t, all.Outputs, res.Outputs)
						if res.SEM.Enabled != opts.SEM {
							t.Fatalf("SEM.Enabled = %t with Options.SEM = %t", res.SEM.Enabled, opts.SEM)
						}
						if all.SEM.BlocksSkipped != 0 {
							t.Fatalf("all-rows-live run skipped %d blocks", all.SEM.BlocksSkipped)
						}
						read, allRead := res.IO.ReadBytes(), all.IO.ReadBytes()
						if p.wantSkips {
							if res.SEM.BlocksSkipped == 0 {
								t.Fatal("sparse-frontier run skipped no blocks")
							}
							if res.SEM.BytesSkipped <= 0 {
								t.Fatalf("skipped %d blocks but %d bytes", res.SEM.BlocksSkipped, res.SEM.BytesSkipped)
							}
							if read >= allRead {
								t.Fatalf("read %d device bytes, all rows live %d — skips bought nothing", read, allRead)
							}
						} else {
							// SCIU reads active vertices' edges only, and under
							// PageRank every vertex stays active: nothing to skip,
							// and not a byte moves differently.
							if res.SEM.BlocksSkipped != 0 {
								t.Fatalf("%s run skipped %d blocks", p.name, res.SEM.BlocksSkipped)
							}
							if read != allRead {
								t.Fatalf("read %d device bytes, all rows live %d", read, allRead)
							}
						}
						if !opts.DefaultBuffer && read+res.SEM.BytesSkipped != allRead {
							// With no buffer in front, every cell a pass does not
							// read is one the all-rows-live pass read from the
							// device: the counter is that difference exactly.
							t.Fatalf("read %d + skipped %d = %d bytes, all rows live read %d",
								read, res.SEM.BytesSkipped, read+res.SEM.BytesSkipped, allRead)
						}
					})
				}
			}
		}
	}
}

// TestSkipCountsDeviceTrafficOnly: BytesSkipped is "device traffic avoided",
// so a dead-row secondary cell that sits in the per-run buffer — the pass
// would have been served it from memory — is not in it. Before this was
// fixed a second FCIU half counted every dead cell, resident or not.
func TestSkipCountsDeviceTrafficOnly(t *testing.T) {
	for _, sem := range []bool{false, true} {
		l := chaosLayout(t, graph.CodecDelta, 11)
		m := &l.Meta
		if m.P != 4 {
			t.Fatalf("layout has %d intervals, the test is written for 4", m.P)
		}
		for _, c := range [][2]int{{1, 0}, {2, 0}, {2, 1}} {
			if m.SubBlockEdges(c[0], c[1]) == 0 {
				t.Fatalf("cell %v is empty; pick another layout", c)
			}
		}
		// Frontier: one vertex of the last interval. Rows 0–2 are dead, so of
		// the secondary cells (i > j) the pass reads row 3's and skips (1,0),
		// (2,0) and (2,1) — the last two resident.
		lo, _ := m.Interval(3)
		opts := core.Options{BufferBytes: m.EdgeBytesTotal(), SEM: sem}
		resident := [][2]int{{2, 0}, {2, 1}}
		for _, pass := range []struct {
			name  string
			cells core.PassCells
		}{{"fciu-2", core.FCIUSecondPass}, {"fciu-1", core.FCIUFirstPass}} {
			st, err := core.RunPassFrom(l, &algorithms.BFS{Source: 0}, opts, pass.cells, []int{lo}, resident)
			if err != nil {
				t.Fatal(err)
			}
			wantBlocks, wantBytes := 1, m.SubBlockDiskBytes(1, 0)
			if pass.cells == core.FCIUFirstPass {
				// The first half also meets the dead rows' diagonal and
				// upper-triangle cells, none of them buffered, and nothing
				// activates in a dead row for the cross-iteration scatter to
				// need them.
				for i := 0; i < 3; i++ {
					for j := i; j < m.P; j++ {
						if m.SubBlockEdges(i, j) > 0 {
							wantBlocks++
							wantBytes += m.SubBlockDiskBytes(i, j)
						}
					}
				}
			}
			if st.Skipped != wantBlocks || st.SkippedBytes != wantBytes {
				t.Errorf("%s sem=%t: skipped %d blocks / %d bytes, want %d / %d (resident dead cells are not device traffic)",
					pass.name, sem, st.Skipped, st.SkippedBytes, wantBlocks, wantBytes)
			}
		}
	}
}

// TestFullPassReadsExactlyTheLiveRows is the skip contract as a property over
// random frontiers: a plain full pass reads each non-empty cell of a row that
// holds an active vertex once, reads nothing else, and counts every other
// non-empty cell — blocks and on-disk bytes — as skipped.
func TestFullPassReadsExactlyTheLiveRows(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		l := chaosLayout(t, codec, 11)
		m := &l.Meta
		cellOf := make(map[string][2]int)
		for _, c := range nonEmptyColumnMajor(m) {
			cellOf[partition.SubBlockName(c[0], c[1])] = c
		}
		var mu sync.Mutex
		reads := make(map[[2]int]int)
		l.Dev.SetFaultInjector(func(op, name string) error {
			if c, ok := cellOf[name]; ok && op == "read" {
				mu.Lock()
				reads[c]++
				mu.Unlock()
			}
			return nil
		})
		for trial := 0; trial < 40; trial++ {
			// Frontiers from empty through a few clustered vertices to dense:
			// pick some intervals, then some vertices inside each.
			var frontier []int
			for i := 0; i < m.P; i++ {
				if rng.Intn(2) == 0 {
					continue
				}
				lo, hi := m.Interval(i)
				for k := rng.Intn(1 + (hi-lo)>>uint(rng.Intn(8))); k >= 0; k-- {
					frontier = append(frontier, lo+rng.Intn(hi-lo))
				}
			}
			clear(reads)
			opts := core.Options{PrefetchDepth: -(trial % 2)}
			st, err := core.RunPassFrom(l, &algorithms.BFS{Source: 0}, opts, core.FullPass, frontier, nil)
			if err != nil {
				t.Fatal(err)
			}
			live := make([]bool, m.P)
			for i := range live {
				lo, hi := m.Interval(i)
				for _, v := range frontier {
					live[i] = live[i] || (lo <= v && v < hi)
				}
			}
			skipped, skippedBytes := 0, int64(0)
			for _, c := range cellOf {
				switch got := reads[c]; {
				case live[c[0]] && got != 1:
					t.Fatalf("trial %d: live-row cell %v read %d times, want once", trial, c, got)
				case !live[c[0]] && got != 0:
					t.Fatalf("trial %d: cell %v read %d times though interval %d holds no active vertex", trial, c, got, c[0])
				case !live[c[0]]:
					skipped++
					skippedBytes += m.SubBlockDiskBytes(c[0], c[1])
				}
			}
			if len(reads)+st.Skipped != len(cellOf) {
				t.Fatalf("trial %d: %d blocks read + %d skipped != %d non-empty cells", trial, len(reads), st.Skipped, len(cellOf))
			}
			if st.Skipped != skipped || st.SkippedBytes != skippedBytes {
				t.Fatalf("trial %d: counted %d blocks / %d bytes skipped, the dead rows hold %d / %d", trial, st.Skipped, st.SkippedBytes, skipped, skippedBytes)
			}
		}
	}
}

// TestSEMCheckpointResumeBitIdentical crashes a SEM checkpointed run
// mid-flight and resumes it under SEM; the result must match an
// uninterrupted SEM-off run bit for bit.
func TestSEMCheckpointResumeBitIdentical(t *testing.T) {
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
			_, err = core.Run(l, prog(), semOn(core.Options{
				Checkpoint: core.CheckpointOptions{Every: 2, Dir: ckDir},
				OnIteration: func(st core.IterStat) {
					if st.Index == 3 {
						l.Dev.SetFaultInjector(func(op, name string) error { return power })
					}
				},
			}))
			l.Dev.SetFaultInjector(nil)
			if !errors.Is(err, power) {
				t.Fatalf("crashed run returned %v, want injected power loss", err)
			}
			if !checkpoint.Exists(ckDir) {
				t.Fatal("no checkpoint survived the crash")
			}

			res, err := core.Run(l, prog(), semOn(core.Options{
				Checkpoint: core.CheckpointOptions{Every: 2, Dir: ckDir, Resume: true},
			}))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Resumed || res.ResumedFrom != 4 {
				t.Fatalf("resumed=%t from %d, want resume from iteration 4", res.Resumed, res.ResumedFrom)
			}
			requireIdenticalOutputs(t, base.Outputs, res.Outputs)
		})
	}
}

// TestSEMChaosBitIdentical injects 5% transient read faults into a SEM run;
// retries recover it and the outputs must match the fault-free SEM-off
// baseline, with skips still recorded.
func TestSEMChaosBitIdentical(t *testing.T) {
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		t.Run(codec.String(), func(t *testing.T) {
			opts := core.Options{ForceModel: core.ForceFull, DefaultBuffer: true}
			prog := func() core.Program { return &algorithms.BFS{Source: 0} }
			l := chaosLayout(t, codec, 5)
			base, err := core.Run(l, prog(), opts)
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
			res, err := core.Run(l, prog(), semOn(opts))
			l.Dev.SetFaultInjector(nil)
			l.Dev.SetRetryPolicy(storage.RetryPolicy{})
			if err != nil {
				t.Fatalf("SEM chaos run did not survive: %v", err)
			}
			if chaos.Stats().Transient == 0 {
				t.Fatal("chaos injected no faults — harness not exercised")
			}
			if res.IO.Retries == 0 {
				t.Fatal("faults injected but device recorded no retries")
			}
			if res.SEM.BlocksSkipped == 0 {
				t.Fatal("SEM chaos run skipped no blocks")
			}
			requireIdenticalOutputs(t, base.Outputs, res.Outputs)
		})
	}
}

// TestSEMSharedCompressedCache runs the same job twice over a compressed
// shared cache: the warm run must serve sub-blocks from the compressed tier
// (decoding per hit), produce bit-identical outputs, and demonstrate the
// capacity advantage — more decoded graph bytes represented than RAM spent.
func TestSEMSharedCompressedCache(t *testing.T) {
	l := chaosLayout(t, graph.CodecRaw, 12)
	prog := func() core.Program { return &algorithms.PageRank{Iterations: 4} }
	base, err := core.Run(l, prog(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	shared := buffer.NewSharedCompressed(l.Meta.EdgeBytesTotal())
	cold, err := core.Run(l, prog(), core.Options{SharedBlocks: shared})
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalOutputs(t, base.Outputs, cold.Outputs)
	if !cold.SEM.Enabled {
		t.Fatal("compressed-shared run not marked SEM-enabled")
	}
	if cold.SEM.CompressedBytes <= 0 || cold.SEM.DecodedBytes <= 0 {
		t.Fatalf("cold run recorded no compressed-tier volume: %+v", cold.SEM)
	}
	if r := cold.SEM.EffectiveCapacityRatio(); r <= 1 {
		t.Fatalf("effective capacity ratio %.2f, want > 1 (delta tier smaller than decoded)", r)
	}

	warm, err := core.Run(l, prog(), core.Options{SharedBlocks: shared})
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalOutputs(t, base.Outputs, warm.Outputs)
	if warm.SEM.CompressedHits == 0 {
		t.Fatal("warm run had no compressed-tier hits")
	}
	st := shared.Stats()
	if st.CompressedHits == 0 || st.Hits < st.CompressedHits {
		t.Fatalf("shared stats hits=%d compressed=%d", st.Hits, st.CompressedHits)
	}
	if st.DecodeTime <= 0 {
		t.Fatal("compressed hits reported no decode time")
	}
}
