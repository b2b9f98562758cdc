package core

import (
	"context"
	"errors"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/pipeline"
	"github.com/graphsd/graphsd/internal/storage"
)

// streamLoader is a scripted block loader: cell (i, j) loads as i*100+j,
// except that the first load of a cell named in failOnce returns that error
// instead. It counts every call; prefetch workers call it concurrently.
type streamLoader struct {
	mu       sync.Mutex
	failOnce map[[2]int]error
	calls    int
}

func (l *streamLoader) load(i, j int) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls++
	if err, ok := l.failOnce[[2]int{i, j}]; ok {
		delete(l.failOnce, [2]int{i, j})
		return 0, err
	}
	return i*100 + j, nil
}

func TestBlockStream(t *testing.T) {
	transient := storage.Transient(errors.New("transient sector fault"))
	permanent := errors.New("checksum mismatch")
	cells := [][2]int{{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}}
	last := len(cells) - 1

	for _, tc := range []struct {
		name     string
		prefetch bool
		views    bool     // a stream of run views: its list loads inline
		listed   [][2]int // the stream's request list
		consume  [][2]int // what the driver takes, in order
		fail     map[[2]int]error
		wantErr  error // surfaces at the failing cell; later cells are not taken
		// Expected stream outcomes after close.
		fallbacks, prefetched, calls int
	}{
		{name: "sync/clean", listed: cells, consume: cells, calls: 5},
		{name: "prefetch/clean", prefetch: true, listed: cells, consume: cells, prefetched: 5, calls: 5},

		// A transient fault on a prefetched block degrades the rest of the
		// list to synchronous loads: the failing request and every one after
		// it, each counted once, wherever the fault struck.
		{name: "prefetch/transient-first", prefetch: true, listed: cells, consume: cells,
			fail: map[[2]int]error{cells[0]: transient}, fallbacks: 5, prefetched: 0},
		{name: "prefetch/transient-mid", prefetch: true, listed: cells, consume: cells,
			fail: map[[2]int]error{cells[2]: transient}, fallbacks: 3, prefetched: 2},
		{name: "prefetch/transient-last", prefetch: true, listed: cells, consume: cells,
			fail: map[[2]int]error{cells[last]: transient}, fallbacks: 1, prefetched: 4, calls: 6},

		// Without a pipeline there is nothing to degrade from: the load's own
		// error is the driver's error, transient or not.
		{name: "sync/transient", listed: cells, consume: cells,
			fail: map[[2]int]error{cells[1]: transient}, wantErr: transient, calls: 2},
		{name: "sync/permanent", listed: cells, consume: cells,
			fail: map[[2]int]error{cells[1]: permanent}, wantErr: permanent, calls: 2},
		{name: "prefetch/permanent", prefetch: true, listed: cells, consume: cells,
			fail: map[[2]int]error{cells[2]: permanent}, wantErr: permanent, prefetched: 2},

		// Cells the driver takes that are not the head of the list — left off
		// it, or expected elsewhere — load synchronously and are not
		// fallbacks.
		{name: "prefetch/unlisted", prefetch: true, listed: [][2]int{cells[0], cells[2], cells[4]}, consume: cells,
			prefetched: 3, calls: 5},
		{name: "sync/unlisted", listed: [][2]int{cells[0], cells[2]}, consume: cells, calls: 5},
		// A one-request list has nothing to overlap and is not prefetched.
		{name: "prefetch/single", prefetch: true, listed: cells[:1], consume: cells[:2], calls: 2},

		// A stream of views loads its list on the consumer, counted like
		// prefetched blocks, each load its own fetch and stall. It degrades
		// like a pipeline, and since no fetch races its call counts are exact:
		// the failed load and its reload are both calls.
		{name: "inline/clean", prefetch: true, views: true, listed: cells, consume: cells, prefetched: 5, calls: 5},
		{name: "inline/transient-first", prefetch: true, views: true, listed: cells, consume: cells,
			fail: map[[2]int]error{cells[0]: transient}, fallbacks: 5, prefetched: 0, calls: 6},
		{name: "inline/transient-mid", prefetch: true, views: true, listed: cells, consume: cells,
			fail: map[[2]int]error{cells[2]: transient}, fallbacks: 3, prefetched: 2, calls: 6},
		{name: "inline/transient-last", prefetch: true, views: true, listed: cells, consume: cells,
			fail: map[[2]int]error{cells[last]: transient}, fallbacks: 1, prefetched: 4, calls: 6},
		{name: "inline/permanent", prefetch: true, views: true, listed: cells, consume: cells,
			fail: map[[2]int]error{cells[2]: permanent}, wantErr: permanent, prefetched: 2, calls: 3},
		{name: "inline/unlisted", prefetch: true, views: true, listed: [][2]int{cells[0], cells[2], cells[4]}, consume: cells,
			prefetched: 3, calls: 5},
		{name: "inline/single", prefetch: true, views: true, listed: cells[:1], consume: cells[:2], calls: 2},
		// Prefetching off, a stream of views is synchronous like any other.
		{name: "sync/views", views: true, listed: cells, consume: cells, calls: 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ld := &streamLoader{failOnce: tc.fail}
			opts := Options{PrefetchDepth: -1}
			if tc.prefetch {
				opts.PrefetchDepth = 2
			}
			var reqs []pipeline.Request
			for _, c := range tc.listed {
				reqs = append(reqs, pipeline.Request{I: c[0], J: c[1], Bytes: 1})
			}
			var total pipeline.Stats
			st := openBlockStream(context.Background(), opts, &total, reqs, tc.views, ld.load)
			var err error
			for _, c := range tc.consume {
				var got int
				if got, err = st.take(c[0], c[1]); err != nil {
					break
				}
				if got != c[0]*100+c[1] {
					t.Fatalf("take(%d,%d) = %d", c[0], c[1], got)
				}
			}
			st.close()
			if !errors.Is(err, tc.wantErr) || (err != nil) != (tc.wantErr != nil) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if total.Fallbacks != tc.fallbacks || total.Blocks != tc.prefetched {
				t.Fatalf("fallbacks %d prefetched %d, want %d and %d", total.Fallbacks, total.Blocks, tc.fallbacks, tc.prefetched)
			}
			inline := 0
			if tc.views && tc.prefetch {
				inline = tc.prefetched
				if total.Stall != total.Fetch || total.Overlap != 0 {
					t.Fatalf("inline stream: stall %v fetch %v overlap %v, want stall = fetch and no overlap", total.Stall, total.Fetch, total.Overlap)
				}
			}
			if total.Inline != inline {
				t.Fatalf("%d blocks loaded inline, want %d", total.Inline, inline)
			}
			// After a fault the pipeline's in-flight fetches make the call
			// count racy; it is pinned where it is exact.
			if tc.calls != 0 && ld.calls != tc.calls {
				t.Fatalf("load called %d times, want %d", ld.calls, tc.calls)
			}
		})
	}
}

// BenchmarkBlockStreamShortList prices the hand-off an inline stream saves
// (openBlockStream): the time per take of a three-request list, the length of
// a lattice's async row, whose loads each take about a microsecond, as a run
// view of a lattice cell does — loaded inline on the consumer, and through a
// prefetch pipeline started for the list.
func BenchmarkBlockStreamShortList(b *testing.B) {
	reqs := []pipeline.Request{{I: 0, J: 0, Bytes: 1}, {I: 0, J: 1, Bytes: 1}, {I: 0, J: 2, Bytes: 1}}
	load := func(i, j int) (int, error) {
		for t0 := time.Now(); time.Since(t0) < time.Microsecond; {
		}
		return i*100 + j, nil
	}
	for _, views := range []bool{true, false} {
		name := "pipelined"
		if views {
			name = "inline"
		}
		b.Run(name, func(b *testing.B) {
			var total pipeline.Stats
			for n := 0; n < b.N; n++ {
				st := openBlockStream(context.Background(), Options{}, &total, reqs, views, load)
				for _, r := range reqs {
					if _, err := st.take(r.I, r.J); err != nil {
						b.Fatal(err)
					}
				}
				st.close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/take")
		})
	}
}

// TestBlockStreamCancelledWhileWaiting: a take blocked on an in-flight
// prefetch returns the context's error as soon as the run is cancelled, and
// a dead context fails every later take, prefetched or not.
func TestBlockStreamCancelledWhileWaiting(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	load := func(i, j int) (int, error) {
		if i == 1 {
			close(entered)
			<-release
		}
		return i, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	reqs := []pipeline.Request{{I: 0}, {I: 1}, {I: 2}}
	var total pipeline.Stats
	st := openBlockStream(ctx, Options{PrefetchDepth: 1}, &total, reqs, false, load)
	if _, err := st.take(0, 0); err != nil {
		t.Fatal(err)
	}
	go func() {
		<-entered
		cancel()
	}()
	if _, err := st.take(1, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked take returned %v, want context.Canceled", err)
	}
	if _, err := st.take(5, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("synchronous take on a dead context returned %v", err)
	}
	close(release)
	st.close()
	if total.Fallbacks != 0 || total.Blocks != 1 {
		t.Fatalf("stats after cancel: %+v", total)
	}
}

// TestViewBlockPoolDiscipline walks a view block through its life: the source
// hands out the whole block's runs, release gives its memory back, and — with
// poison on, as every engine test of the view route runs — a decode from the
// released block fails instead of quietly reading the next block's payload.
// A block the scan declines (sources descending) comes back decoded, and its
// memory returns to the pool at once.
func TestViewBlockPoolDiscipline(t *testing.T) {
	dev, err := storage.OpenDevice(t.TempDir(), storage.ScaledHDD)
	if err != nil {
		t.Fatal(err)
	}
	l, err := partition.Build(dev, gen.Weighted(gen.Grid(16), 8, 1), 2, partition.WithCodec(graph.CodecDelta))
	if err != nil {
		t.Fatal(err)
	}
	s := newBlockSource(l, nil)
	defer s.close()
	s.poison = true
	everyone := bitset.NewActiveSet(l.Meta.NumVertices)
	everyone.ActivateAll()

	blk, err := s.viewed(0, 0)
	if err != nil || blk.runs == nil {
		t.Fatalf("viewed(0,0) = %+v, %v; want a run view", blk, err)
	}
	want, err := l.LoadSubBlock(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := blk.runs.view.AppendActive(nil, everyone.Words())
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("view decodes %d edges, %v; the decoded route %d", len(got), err, len(want))
	}
	s.release(blk)
	if got, err := blk.runs.view.AppendActive(nil, everyone.Words()); err == nil {
		t.Fatalf("released block still decodes %d edges", len(got))
	}

	// Rewrite the block with its runs in descending source order, checksum
	// and all: still a valid delta block, but one with no per-source
	// directory.
	slices.Reverse(want)
	payload := graph.EncodeDeltaBlock(nil, want, 0, 0, true)
	if err := dev.WriteFile(l.Meta.BlockName(0, 0), payload); err != nil {
		t.Fatal(err)
	}
	l.Meta.BlockBytes[0][0], l.Meta.BlockSums[0][0] = int64(len(payload)), partition.Checksum(payload)
	// A file is immutable under its name, which is what lets a run keep its
	// descriptor and directory: the source that saw the old bytes still reads
	// them, and the manifest's new sum rejects them.
	if blk, err := s.viewed(0, 0); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("replaced file under a kept handle: block %+v, %v; want a checksum mismatch", blk, err)
	}
	s2 := newBlockSource(l, nil)
	defer s2.close()
	blk, err = s2.viewed(0, 0)
	if err != nil || blk.runs != nil || !slices.Equal(blk.edges, want) {
		t.Fatalf("descending block: view %t, %d edges, %v; want the %d decoded edges", blk.runs != nil, len(blk.edges), err, len(want))
	}
	if n := s.viewBlocks.Load() + s2.viewBlocks.Load(); n != 1 {
		t.Fatalf("viewBlocks = %d, want 1", n)
	}
}

// nonEmptyCells lists the grid cells of l that hold edges, row-major.
func nonEmptyCells(l *partition.Layout) [][2]int {
	var cells [][2]int
	for i := 0; i < l.Meta.P; i++ {
		for j := 0; j < l.Meta.P; j++ {
			if l.Meta.SubBlockEdges(i, j) > 0 {
				cells = append(cells, [2]int{i, j})
			}
		}
	}
	return cells
}

// TestViewedAdoptsAndScansThroughOnePool interleaves the two ways a pooled view
// block comes by its directory: each block new to the run is scanned right
// after a block seen before has re-attached its kept directory — on a single
// goroutine, so mostly through the very same pooled runBlock — and then every
// block seen so far is viewed again, released blocks poisoned throughout. A
// scan that wrote into a directory its view had only adopted would show as a
// wrong decode or an error on the next visit.
func TestViewedAdoptsAndScansThroughOnePool(t *testing.T) {
	dev, err := storage.OpenDevice(t.TempDir(), storage.ScaledHDD)
	if err != nil {
		t.Fatal(err)
	}
	l, err := partition.Build(dev, gen.Weighted(gen.Grid(24), 8, 2), 3, partition.WithCodec(graph.CodecDelta))
	if err != nil {
		t.Fatal(err)
	}
	s := newBlockSource(l, nil)
	defer s.close()
	s.poison = true
	everyone := bitset.NewActiveSet(l.Meta.NumVertices)
	everyone.ActivateAll()
	view := func(c [2]int) {
		t.Helper()
		blk, err := s.viewed(c[0], c[1])
		if err != nil || blk.runs == nil {
			t.Fatalf("viewed%v = %+v, %v; want a run view", c, blk, err)
		}
		want, err := l.LoadSubBlock(c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		if got, err := blk.runs.view.AppendActive(nil, everyone.Words()); err != nil || !slices.Equal(got, want) {
			t.Fatalf("view of %v decodes %d edges, %v; the decoded route %d", c, len(got), err, len(want))
		}
		s.release(blk)
	}
	cells := nonEmptyCells(l)
	if len(cells) < 3 {
		t.Fatalf("%d non-empty cells", len(cells))
	}
	view(cells[0])
	for k := 1; k < len(cells); k++ {
		view(cells[0]) // adopts
		view(cells[k]) // scans, likely in the block that just adopted
		for _, c := range cells[:k+1] {
			view(c)
		}
	}
	for _, c := range cells {
		if h := s.handle(c[0], c[1]); h.dir.Bytes() == 0 {
			t.Errorf("no directory kept for %v", c)
		} else {
			s.done(h)
		}
	}
}

// rereadLayout is one 128×128 weighted lattice cut 8 ways, delta-coded: its
// diagonal blocks are what sssp_bsp re-reads every iteration.
func rereadLayout(tb testing.TB) *partition.Layout {
	tb.Helper()
	dev, err := storage.OpenDevice(tb.TempDir(), storage.ScaledHDD)
	if err != nil {
		tb.Fatal(err)
	}
	l, err := partition.Build(dev, gen.Weighted(gen.Grid(128), 16, 1), 8, partition.WithCodec(graph.CodecDelta))
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

// TestHandleRereadAllocatesNothing: once a run has seen a block, reading it
// again as a view — handle lookup, pread through the kept descriptor into the
// pooled buffer, CRC verify, directory re-attached — allocates nothing.
func TestHandleRereadAllocatesNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool
	s := newBlockSource(rereadLayout(t), nil)
	defer s.close()
	step := func() {
		blk, err := s.viewed(3, 3)
		if err != nil || blk.runs == nil {
			t.Fatalf("viewed(3,3) = %+v, %v; want a run view", blk, err)
		}
		s.release(blk)
	}
	step()
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("%v allocations per re-read of a viewed block, want 0", allocs)
	}
}

// bufferedMiss is one buffered miss of cell (i, j) as a dense pass takes it:
// the payload read to offer the buffer, its edges decoded into a pooled slice
// the consumer then hands back.
func bufferedMiss(tb testing.TB, s *blockSource, i, j int) []byte {
	blk, err := s.secondary(i, j, false, true)
	if err != nil || blk.payload == nil || len(blk.edges) == 0 {
		tb.Fatalf("secondary(%d,%d) = %d edges, %d payload bytes, %v", i, j, len(blk.edges), len(blk.payload), err)
	}
	s.release(blk)
	return blk.payload
}

// TestSpareMissAllocatesNothing: once a payload the buffer let go is a spare,
// a buffered miss of a cell of the same on-disk size reads into it — handle
// lookup, pread, CRC verify, decode into a pooled slice — and allocates
// nothing, where a miss with no spare of its size allocates its payload.
func TestSpareMissAllocatesNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pools
	l := rereadLayout(t)
	s := newBlockSource(l, nil)
	defer s.close()
	// Two cells of one on-disk size where the lattice has them, else one.
	a, b := [2]int{3, 3}, [2]int{3, 3}
	bySize := map[int64][2]int{}
	for _, c := range nonEmptyCells(l) {
		size := l.Meta.SubBlockDiskBytes(c[0], c[1])
		if o, ok := bySize[size]; ok {
			a, b = o, c
			break
		}
		bySize[size] = c
	}
	limit := l.Meta.SubBlockDiskBytes(a[0], a[1])
	payload := bufferedMiss(t, s, a[0], a[1])
	step := func() {
		spent := payload // evicted, and its pass over
		s.recycle(s.collect([][]byte{spent}, 0, limit))
		if payload = bufferedMiss(t, s, b[0], b[1]); &payload[0] != &spent[0] {
			t.Fatalf("a miss of %v did not read into the spare of its size", b)
		}
		a, b = b, a
	}
	step()
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("%v allocations per buffered miss into a spare, want 0", allocs)
	}
	r := l.BlockReader(a[0], a[1])
	defer r.Close()
	want, err := l.LoadSubBlockPayloadFrom(r, a[0], a[1], nil)
	if err != nil || !slices.Equal(bufferedMiss(t, s, a[0], a[1]), want) {
		t.Fatalf("a miss of %v with no spare: not the verified payload (%v)", a, err)
	}
	if allocs := testing.AllocsPerRun(10, func() { bufferedMiss(t, s, a[0], a[1]) }); allocs < 1 {
		t.Errorf("%v allocations per buffered miss with no spare: its payload is not fresh memory", allocs)
	}
}

// BenchmarkBlockReread prices one more read of a block the run has read
// before: by name, as every load was made before handles (resolve the name,
// open, stat, read, verify, close); through the block's kept handle; through
// the handle as a run view, directory re-attached; and as a buffered miss of a
// dense pass (secondary with keep: the payload to offer, its edges decoded into
// a pooled slice), into fresh memory or into a spare of the cell's size. The
// first two deliver the verified payload, the third what a sparse pass
// scatters from.
func BenchmarkBlockReread(b *testing.B) {
	l := rereadLayout(b)
	const i, j = 3, 3
	b.SetBytes(l.Meta.SubBlockDiskBytes(i, j))
	b.Run("by-name", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for n := 0; n < b.N; n++ {
			r := l.BlockReader(i, j)
			payload, err := l.LoadSubBlockPayloadFrom(r, i, j, buf)
			r.Close()
			if err != nil {
				b.Fatal(err)
			}
			buf = payload
		}
	})
	b.Run("handle", func(b *testing.B) {
		b.ReportAllocs()
		r := l.BlockReader(i, j)
		defer r.Close()
		var buf []byte
		for n := 0; n < b.N; n++ {
			payload, err := l.LoadSubBlockPayloadFrom(r, i, j, buf)
			if err != nil {
				b.Fatal(err)
			}
			buf = payload
		}
	})
	b.Run("handle-view", func(b *testing.B) {
		b.ReportAllocs()
		s := newBlockSource(l, nil)
		defer s.close()
		for n := 0; n < b.N; n++ {
			blk, err := s.viewed(i, j)
			if err != nil || blk.runs == nil {
				b.Fatalf("viewed = %+v, %v", blk, err)
			}
			s.release(blk)
		}
	})
	for _, spare := range []bool{false, true} {
		name := "buffered-miss/fresh"
		if spare {
			name = "buffered-miss/spare"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			s := newBlockSource(l, nil)
			defer s.close()
			for n := 0; n < b.N; n++ {
				payload := bufferedMiss(b, s, i, j)
				if spare {
					s.recycle(s.collect([][]byte{payload}, 0, l.Meta.SubBlockDiskBytes(i, j)))
				}
			}
		})
	}
}
