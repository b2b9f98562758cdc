package core_test

import (
	"bytes"
	"context"
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
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// State-aware skipping and compressed-tier equivalence suite. The contract:
// skipping the sub-blocks of a source interval with no active vertex is an I/O
// optimisation only — with the I/O model pinned, a run must produce outputs
// bit-identical to one that reads every cell (core.RunAllRowsLive) on every
// path and codec, while demonstrably skipping dead sub-blocks on sparse
// frontiers — and the compressed buffer tier, which is what a per-run buffer
// is on a delta layout, changes no output either.

func TestSEMBitIdenticalAndSkips(t *testing.T) {
	bfs := func() core.Program { return &algorithms.BFS{Source: 0} }
	paths := []struct {
		name string
		prog func() core.Program
		opts core.Options
		// sparse full-model paths must record skips and read strictly fewer
		// edge bytes; SCIU never reads a dead row's cells in the first place.
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
		// Decoded residents on the raw layout, payloads on the delta one.
		{"buffer", func(o *core.Options) { o.DefaultBuffer = true }},
		// The delta layout's residents are a compressed shared cache's entries
		// instead of the device's bytes. The cache holds nothing, so each run
		// reads the device exactly as without it.
		{"buffer-shared", func(o *core.Options) {
			o.DefaultBuffer = true
			o.SharedBlocks = buffer.NewSharedCompressed(0)
		}},
	}
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		for _, p := range paths {
			for _, b := range buffers {
				for _, depth := range []int{0, -1} {
					opts := p.opts
					b.set(&opts)
					opts.PrefetchDepth = depth
					t.Run(fmt.Sprintf("%s/%s/%s/depth=%d", p.name, codec, b.name, depth), func(t *testing.T) {
						allLayout, l := chaosLayout(t, codec, 11), chaosLayout(t, codec, 11)
						opts := opts
						if p.name == "fciu" && codec == graph.CodecDelta && opts.DefaultBuffer {
							// The default buffer holds this graph whole as payloads,
							// so either run reads each cell once and skips could buy
							// nothing. Sized to the secondaries, it leaves both runs
							// reading primaries from the device.
							_, opts.BufferBytes, _ = secondaryCells(&l.Meta)
						}
						var allCharges, charges stepCharges
						all, err := core.RunAllRowsLive(allLayout, p.prog(), allCharges.watch(allLayout, opts))
						if err != nil {
							t.Fatal(err)
						}
						res, err := core.Run(l, p.prog(), charges.watch(l, opts))
						if err != nil {
							t.Fatal(err)
						}
						if res.Iterations != all.Iterations || res.Converged != all.Converged {
							t.Fatalf("skipping run: %d iters converged=%t, all rows live: %d iters converged=%t",
								res.Iterations, res.Converged, all.Iterations, all.Converged)
						}
						requireIdenticalOutputs(t, all.Outputs, res.Outputs)
						if all.SEM.BlocksSkipped != 0 {
							t.Fatalf("all-rows-live run skipped %d blocks", all.SEM.BlocksSkipped)
						}
						// The value (and SCIU's index) terms are modelled reads that
						// follow the live rows too: a run that skips dead rows pays
						// less of them, and under PageRank, with every row live,
						// exactly as much. The rest is edge traffic.
						mod, allMod := charges.total(storage.SeqRead), allCharges.total(storage.SeqRead)
						if dense := p.name == "fciu-dense"; (dense && mod != allMod) || (!dense && mod >= allMod) {
							t.Fatalf("charged %d modelled read bytes, all rows live %d", mod, allMod)
						}
						read, allRead := res.IO.ReadBytes()-mod, all.IO.ReadBytes()-allMod
						if p.wantSkips {
							if res.SEM.BlocksSkipped == 0 {
								t.Fatal("sparse-frontier run skipped no blocks")
							}
							if res.SEM.BytesSkipped <= 0 {
								t.Fatalf("skipped %d blocks but %d bytes", res.SEM.BlocksSkipped, res.SEM.BytesSkipped)
							}
							if read >= allRead {
								t.Fatalf("read %d edge bytes, all rows live %d — skips bought nothing", read, allRead)
							}
						} else {
							// SCIU reads active vertices' edges only, and under
							// PageRank every vertex stays active: nothing to skip,
							// and not an edge byte moves differently.
							if res.SEM.BlocksSkipped != 0 {
								t.Fatalf("%s run skipped %d blocks", p.name, res.SEM.BlocksSkipped)
							}
							if read != allRead {
								t.Fatalf("read %d edge bytes, all rows live %d", read, allRead)
							}
						}
						if !opts.DefaultBuffer && read+res.SEM.BytesSkipped != allRead {
							// With no buffer in front, every cell a pass does not
							// read is one the all-rows-live pass read from the
							// device: the counter is that difference in edge bytes
							// exactly.
							t.Fatalf("read %d + skipped %d = %d edge bytes, all rows live read %d",
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
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		l := chaosLayout(t, codec, 11)
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
		opts := core.Options{BufferBytes: m.EdgeBytesTotal()}
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
				t.Errorf("%s %s: skipped %d blocks / %d bytes, want %d / %d (resident dead cells are not device traffic)",
					pass.name, codec, st.Skipped, st.SkippedBytes, wantBlocks, wantBytes)
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

// TestSEMCheckpointResumeBitIdentical crashes a buffered checkpointed run —
// its buffer a compressed tier on the delta layout — mid-flight and resumes it;
// the result must match an uninterrupted unbuffered run bit for bit. On the raw
// layout the crash is a device fault on the next read. On the delta layout the
// buffer holds every cell as a payload after the first pass, so there is no
// read left to fail: the crash comes through the run's context, at the step
// boundary, as in TestAsyncCrashResumeBitIdentical.
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
			ctx, powerLoss := context.WithCancel(context.Background())
			defer powerLoss()
			want := power
			if codec == graph.CodecDelta {
				want = context.Canceled
			}
			_, err = core.RunContext(ctx, l, prog(), core.Options{
				DefaultBuffer: true,
				Checkpoint:    core.CheckpointOptions{Every: 2, Dir: ckDir},
				OnIteration: func(st core.IterStat) {
					switch {
					case st.Index != 3:
					case codec == graph.CodecDelta:
						powerLoss()
					default:
						l.Dev.SetFaultInjector(func(op, name string) error { return power })
					}
				},
			})
			l.Dev.SetFaultInjector(nil)
			if !errors.Is(err, want) {
				t.Fatalf("crashed run returned %v, want %v", err, want)
			}
			if !checkpoint.Exists(ckDir) {
				t.Fatal("no checkpoint survived the crash")
			}

			res, err := core.Run(l, prog(), core.Options{
				DefaultBuffer: true,
				Checkpoint:    core.CheckpointOptions{Every: 2, Dir: ckDir, Resume: true},
			})
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

// TestSEMChaosBitIdentical injects 5% transient read faults into a buffered
// run; retries recover it and the outputs must match the fault-free baseline,
// with skips still recorded.
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
			res, err := core.Run(l, prog(), opts)
			l.Dev.SetFaultInjector(nil)
			l.Dev.SetRetryPolicy(storage.RetryPolicy{})
			if err != nil {
				t.Fatalf("chaos run did not survive: %v", err)
			}
			if chaos.Stats().Transient == 0 {
				t.Fatal("chaos injected no faults — harness not exercised")
			}
			if res.IO.Retries == 0 {
				t.Fatal("faults injected but device recorded no retries")
			}
			if res.SEM.BlocksSkipped == 0 {
				t.Fatal("chaos run skipped no blocks")
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

// secondaryCells returns the non-empty strictly-lower-triangle cells of m —
// FCIU's secondary sub-blocks — and their summed on-disk and decoded bytes.
func secondaryCells(m *partition.Manifest) (cells [][2]int, disk, decoded int64) {
	return bufferedCells(m, false)
}

// bufferedCells returns the non-empty cells of m a buffer sized to them keeps
// to the end of a run — every one under async, the secondaries under BSP,
// which outrank the primaries — and their summed on-disk and decoded bytes.
func bufferedCells(m *partition.Manifest, async bool) (cells [][2]int, disk, decoded int64) {
	for i := 0; i < m.P; i++ {
		for j := 0; j < m.P; j++ {
			if m.SubBlockEdges(i, j) > 0 && (async || i > j) {
				cells = append(cells, [2]int{i, j})
				disk += m.SubBlockDiskBytes(i, j)
				decoded += m.SubBlockBytes(i, j)
			}
		}
	}
	return cells, disk, decoded
}

// requireVerifiedResidents checks that buf holds every cell of l the schedule
// buffers as its on-disk bytes — no decoded edges — charged exactly those
// bytes.
func requireVerifiedResidents(t *testing.T, l *partition.Layout, buf *buffer.Buffer, async bool) {
	t.Helper()
	cells, disk, _ := bufferedCells(&l.Meta, async)
	for _, c := range cells {
		blk, ok := buf.Peek(buffer.Key{I: c[0], J: c[1]})
		if !ok {
			t.Fatalf("buffered cell %v not resident", c)
		}
		onDisk, err := l.Dev.ReadFile(l.Meta.BlockName(c[0], c[1]))
		if err != nil {
			t.Fatal(err)
		}
		if blk.Edges != nil || !bytes.Equal(blk.Payload, onDisk) {
			t.Fatalf("buffered cell %v resident as %d edges / %d payload bytes, not its %d verified on-disk bytes",
				c, len(blk.Edges), len(blk.Payload), len(onDisk))
		}
	}
	if buf.Len() != len(cells) || buf.Used() != disk {
		t.Fatalf("buffer holds %d blocks charged %d bytes, want the %d buffered cells' %d on-disk bytes", buf.Len(), buf.Used(), len(cells), disk)
	}
}

// TestBufferKeepsVerifiedPayloads: on a delta layout the per-run buffer keeps
// its blocks — under BSP FCIU's secondaries, under async every cell of the
// rows it steps — as the verified payloads the device returned, charged their
// disk bytes, so a buffer sized to those payloads — too small for the same
// blocks decoded — holds every one of them at the end: the primaries FCIU
// offers beside them are evicted first, so no secondary is, the second half of
// every FCIU pass reads no sub-block, an async run reads no sub-block twice,
// and the outputs are those of the raw layout (whose buffer of the same size
// must evict) and of an unbuffered run, bit for bit. Over a lattice, where
// every pass and nearly every row step is sparse, the residents are served as
// run views — attached, never pooled or poisoned — step after step with
// release poisoning on, and stay byte-equal to the disk. The async case cuts
// the lattice into 8 intervals: a drain crosses a whole interval in one step,
// so at 4 the run pops each row about once and no buffer has anything to
// serve twice.
func TestBufferKeepsVerifiedPayloads(t *testing.T) {
	rmat, err := gen.RMAT(9, 8, gen.Graph500, 31)
	if err != nil {
		t.Fatal(err)
	}
	lattice := gen.Weighted(gen.Grid(48), 16, 7)
	for _, c := range []struct {
		name   string
		g      *graph.Graph
		prog   func() core.Program
		sparse bool
		async  bool
		p      int
	}{
		{"pagerank-rmat", rmat, func() core.Program { return &algorithms.PageRank{Iterations: 6} }, false, false, 4},
		{"sssp-lattice", lattice, func() core.Program { return &algorithms.SSSP{Source: 0} }, true, false, 4},
		{"sssp-lattice-async", lattice, func() core.Program { return &algorithms.SSSP{Source: 0} }, true, true, 8},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := codecLayout(t, c.g, c.p, graph.CodecDelta)
			cellOf := make(map[string][2]int)
			for _, cell := range nonEmptyColumnMajor(&l.Meta) {
				cellOf[l.Meta.BlockName(cell[0], cell[1])] = cell
			}
			cells, disk, decoded := bufferedCells(&l.Meta, c.async)
			if len(cells) == 0 || disk >= decoded {
				t.Fatalf("%d buffered cells, %d bytes on disk, %d decoded: nothing to show", len(cells), disk, decoded)
			}
			opts := core.Options{ForceModel: core.ForceFull, BufferBytes: disk, Threads: 1, Async: c.async}

			// Whole-block reads per iteration and per cell, through the
			// device's fault hook.
			var mu sync.Mutex
			var iter int
			reads := map[int]int{}
			readsOf := map[string]int{}
			l.Dev.SetFaultInjector(func(op, name string) error {
				if _, ok := cellOf[name]; ok && op == "read" {
					mu.Lock()
					reads[iter]++
					readsOf[name]++
					mu.Unlock()
				}
				return nil
			})
			var paths []string
			opts.OnIteration = func(st core.IterStat) {
				mu.Lock()
				paths = append(paths, st.Path)
				iter++
				mu.Unlock()
			}
			res, buf, err := core.RunKeepingBuffer(l, c.prog(), opts, true)
			l.Dev.SetFaultInjector(nil)
			opts.OnIteration = nil
			if err != nil {
				t.Fatal(err)
			}
			requireVerifiedResidents(t, l, buf, c.async)
			if res.Buffer.Hits == 0 {
				t.Fatalf("buffer %+v, want hits", res.Buffer)
			}
			if c.async {
				if res.Buffer.Evictions != 0 {
					t.Fatalf("buffer %+v, want no eviction", res.Buffer)
				}
				for name, n := range readsOf {
					if n > 1 {
						t.Fatalf("%s read %d times, want once: every cell stays resident", name, n)
					}
				}
			} else {
				// FCIU offers its primaries too, into the room the secondaries
				// leave, and evicts them first: no secondary is evicted, so
				// none is read twice.
				for _, cell := range cells {
					if n := readsOf[l.Meta.BlockName(cell[0], cell[1])]; n > 1 {
						t.Fatalf("secondary %v read %d times, want once: no secondary is evicted", cell, n)
					}
				}
				second := 0
				for k, path := range paths {
					if path == "fciu-2" {
						second++
						if reads[k] != 0 {
							t.Fatalf("iteration %d (fciu-2) read %d sub-blocks, want none: every secondary is resident", k, reads[k])
						}
					}
				}
				if second == 0 {
					t.Fatal("no second FCIU half ran")
				}
			}

			unbuffered := opts
			unbuffered.BufferBytes = 0
			plain, err := core.Run(l, c.prog(), unbuffered)
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalOutputs(t, plain.Outputs, res.Outputs)
			raw, err := core.Run(codecLayout(t, c.g, c.p, graph.CodecRaw), c.prog(), opts)
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalOutputs(t, raw.Outputs, res.Outputs)
			if raw.Buffer.Hits >= res.Buffer.Hits {
				t.Fatalf("raw layout: %d hits decoded, delta layout %d as payloads — the payloads should hold more", raw.Buffer.Hits, res.Buffer.Hits)
			}

			if c.sparse {
				viewed, views, err := core.RunCountingViews(l, c.prog(), opts, true)
				if err != nil {
					t.Fatal(err)
				}
				requireIdenticalOutputs(t, plain.Outputs, viewed.Outputs)
				// Every interval has the same length: an async step that reads
				// no more than its row's values read every block from memory.
				valueBytes := int64(l.Meta.IntervalLen(0)) * graph.VertexValueBytes
				resident := 0
				for k, st := range viewed.IterStats {
					fromMemory := st.Path == "fciu-2"
					if c.async {
						fromMemory = st.Blocks > 0 && st.IO.ReadBytes() == valueBytes
					}
					if fromMemory && views[k] > 0 {
						resident++
					}
				}
				if resident < 2 {
					t.Fatalf("%d steps took views of resident payloads alone, want repeated ones", resident)
				}
			}
		})
	}
}

// TestBufferHoldingTheGraphReadsEachCellOnce: every cell an FCIU pass reads is
// offered to the per-run buffer, primaries as well as secondaries, so a buffer
// that can hold the whole grid — decoded on the raw layout, as payloads on the
// delta one — serves every cell from memory after its first read. Through a
// forced-full SSSP over a lattice, whose dead-row cells are read for the
// cross-iteration scatter alone, and PageRank over R-MAT, each non-empty cell
// is read from the device at most once a run, and the outputs are an
// unbuffered run's, bit for bit.
func TestBufferHoldingTheGraphReadsEachCellOnce(t *testing.T) {
	rmat, err := gen.RMAT(9, 8, gen.Graph500, 31)
	if err != nil {
		t.Fatal(err)
	}
	lattice := gen.Weighted(gen.Grid(48), 16, 7)
	for _, c := range []struct {
		name string
		g    *graph.Graph
		prog func() core.Program
	}{
		{"sssp-lattice", lattice, func() core.Program { return &algorithms.SSSP{Source: 0} }},
		{"pagerank-rmat", rmat, func() core.Program { return &algorithms.PageRank{Iterations: 6} }},
	} {
		for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
			for _, depth := range []int{0, -1} {
				t.Run(fmt.Sprintf("%s/%s/depth=%d", c.name, codec, depth), func(t *testing.T) {
					l := codecLayout(t, c.g, 4, codec)
					cellOf := make(map[string][2]int)
					for _, cell := range nonEmptyColumnMajor(&l.Meta) {
						cellOf[l.Meta.BlockName(cell[0], cell[1])] = cell
					}
					var mu sync.Mutex
					reads := make(map[[2]int]int)
					l.Dev.SetFaultInjector(func(op, name string) error {
						if cell, ok := cellOf[name]; ok && op == "read" {
							mu.Lock()
							reads[cell]++
							mu.Unlock()
						}
						return nil
					})
					opts := core.Options{ForceModel: core.ForceFull, PrefetchDepth: depth, BufferBytes: l.Meta.EdgeBytesTotal()}
					res, err := core.Run(l, c.prog(), opts)
					l.Dev.SetFaultInjector(nil)
					if err != nil {
						t.Fatal(err)
					}
					if len(reads) == 0 || res.Buffer.Hits == 0 {
						t.Fatalf("%d cells read, buffer %+v: nothing exercised", len(reads), res.Buffer)
					}
					for cell, n := range reads {
						if n > 1 {
							t.Fatalf("cell %v read %d times, want once: the buffer holds the whole grid (%+v)", cell, n, res.Buffer)
						}
					}
					opts.BufferBytes = 0
					plain, err := core.Run(l, c.prog(), opts)
					if err != nil {
						t.Fatal(err)
					}
					requireIdenticalOutputs(t, plain.Outputs, res.Outputs)
				})
			}
		}
	}
}
