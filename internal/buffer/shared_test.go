package buffer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/graphsd/graphsd/internal/graph"
)

func mkEdges(i, j, n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for k := range edges {
		edges[k] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(j + k)}
	}
	return edges
}

func TestSharedHitMiss(t *testing.T) {
	s := NewShared(1 << 20)
	loads := 0
	load := func() ([]graph.Edge, int64, error) {
		loads++
		return mkEdges(1, 2, 3), 100, nil
	}
	edges, hit, err := s.GetOrLoad(Key{I: 1, J: 2}, load)
	if err != nil || hit || len(edges) != 3 {
		t.Fatalf("first GetOrLoad: edges=%d hit=%t err=%v", len(edges), hit, err)
	}
	edges, hit, err = s.GetOrLoad(Key{I: 1, J: 2}, load)
	if err != nil || !hit || len(edges) != 3 {
		t.Fatalf("second GetOrLoad: edges=%d hit=%t err=%v", len(edges), hit, err)
	}
	if loads != 1 {
		t.Fatalf("load called %d times, want 1", loads)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.BytesSaved != 100 || st.Insertions != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSharedLRUEviction(t *testing.T) {
	s := NewShared(250)
	put := func(k Key) {
		s.GetOrLoad(k, func() ([]graph.Edge, int64, error) { return mkEdges(k.I, k.J, 1), 100, nil })
	}
	put(Key{I: 0, J: 0})
	put(Key{I: 1, J: 0})
	// Touch (0,0) so (1,0) is the LRU victim.
	put(Key{I: 0, J: 0})
	put(Key{I: 2, J: 0})
	if !s.has(Key{I: 0, J: 0}) || s.has(Key{I: 1, J: 0}) || !s.has(Key{I: 2, J: 0}) {
		t.Fatalf("LRU eviction picked the wrong victim: %+v", s.Stats())
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// A block larger than capacity is served but never cached.
	_, _, err := s.GetOrLoad(Key{I: 9, J: 9}, func() ([]graph.Edge, int64, error) { return mkEdges(9, 9, 1), 1000, nil })
	if err != nil {
		t.Fatal(err)
	}
	if s.has(Key{I: 9, J: 9}) {
		t.Fatal("oversized block was cached")
	}
	if st := s.Stats(); st.Rejections != 1 {
		t.Fatalf("rejections = %d, want 1", st.Rejections)
	}
}

func (s *Shared) has(k Key) bool {
	_, ok := s.Peek(k)
	return ok
}

func TestSharedFailedLoadNotCachedAndRetriable(t *testing.T) {
	s := NewShared(1 << 20)
	boom := errors.New("boom")
	_, _, err := s.GetOrLoad(Key{I: 1, J: 1}, func() ([]graph.Edge, int64, error) { return nil, 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	edges, _, err := s.GetOrLoad(Key{I: 1, J: 1}, func() ([]graph.Edge, int64, error) { return mkEdges(1, 1, 2), 10, nil })
	if err != nil || len(edges) != 2 {
		t.Fatalf("retry after failed load: edges=%d err=%v", len(edges), err)
	}
}

// TestSharedSingleFlight: concurrent callers for one key perform exactly one
// load between them.
func TestSharedSingleFlight(t *testing.T) {
	s := NewShared(1 << 20)
	var loads atomic.Int64
	gate := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			edges, _, err := s.GetOrLoad(Key{I: 3, J: 4}, func() ([]graph.Edge, int64, error) {
				loads.Add(1)
				return mkEdges(3, 4, 5), 50, nil
			})
			if err != nil || len(edges) != 5 {
				t.Errorf("GetOrLoad: edges=%d err=%v", len(edges), err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("load ran %d times, want 1 (single-flight)", n)
	}
	st := s.Stats()
	// Every caller but the loader was served without a load: from residency,
	// or by waiting on the flight, which counts as a dedup wait and a hit.
	if st.Misses != 1 || st.Hits != callers-1 || st.DedupWaits > st.Hits {
		t.Fatalf("stats after single-flight fan-in: %+v", st)
	}
}

// TestSharedStress hammers one small cache from many goroutines over an
// overlapping key set — run under -race this is the goroutine-safety proof
// for the server's shared cache.
func TestSharedStress(t *testing.T) {
	s := NewShared(2000) // holds ~half the key set: hits and eviction churn
	const (
		workers = 8
		keys    = 16
		rounds  = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := Key{I: (w + r) % keys, J: r % 4}
				edges, _, err := s.GetOrLoad(k, func() ([]graph.Edge, int64, error) {
					return mkEdges(k.I, k.J, k.I+1), int64(50 + k.I), nil
				})
				if err != nil {
					t.Errorf("GetOrLoad(%v): %v", k, err)
					return
				}
				if len(edges) != k.I+1 || int(edges[0].Src) != k.I {
					t.Errorf("GetOrLoad(%v) returned wrong edges (%d)", k, len(edges))
					return
				}
				if r%7 == 0 {
					s.Peek(k)
					s.Used()
				}
			}
		}(w)
	}
	wg.Wait()

	st := s.Stats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("stress produced no cache activity: %+v", st)
	}
	if s.Used() > 2000 {
		t.Fatalf("used %d exceeds capacity", s.Used())
	}
	t.Logf("stress: %+v", st)
}

// TestSharedFailedFlightWaitersNotHits pins the dedup-wait accounting: a
// waiter whose in-flight load fails got nothing, so it must report hit=false
// and must not count toward Hits or BytesSaved — SharedHits-derived metrics
// would otherwise report device reads saved by loads that never happened.
func TestSharedFailedFlightWaitersNotHits(t *testing.T) {
	s := NewShared(1 << 20)
	boom := errors.New("boom")
	started := make(chan struct{})
	release := make(chan struct{})
	loaderDone := make(chan struct{})
	go func() {
		defer close(loaderDone)
		_, hit, err := s.GetOrLoad(Key{I: 5, J: 5}, func() ([]graph.Edge, int64, error) {
			close(started)
			<-release
			return nil, 0, boom
		})
		if hit || !errors.Is(err, boom) {
			t.Errorf("loader: hit=%t err=%v", hit, err)
		}
	}()
	<-started

	const waiters = 4
	var wg sync.WaitGroup
	for c := 0; c < waiters; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			edges, hit, err := s.GetOrLoad(Key{I: 5, J: 5}, func() ([]graph.Edge, int64, error) {
				t.Error("waiter ran its own load while a flight was pending")
				return nil, 0, nil
			})
			if hit {
				t.Error("waiter on a failed flight reported hit=true")
			}
			if edges != nil || !errors.Is(err, boom) {
				t.Errorf("waiter: edges=%v err=%v", edges, err)
			}
		}()
	}
	// Wait until all waiters are parked on the flight before failing it.
	for {
		if st := s.Stats(); st.DedupWaits == waiters {
			break
		}
	}
	close(release)
	<-loaderDone
	wg.Wait()

	st := s.Stats()
	if st.Hits != 0 || st.BytesSaved != 0 {
		t.Fatalf("failed flight inflated hit metrics: %+v", st)
	}
	if st.Misses != 1 || st.DedupWaits != waiters {
		t.Fatalf("stats: %+v", st)
	}

	// Contrast: waiters on a SUCCESSFUL flight are hits and save bytes.
	started2 := make(chan struct{})
	release2 := make(chan struct{})
	go func() {
		s.GetOrLoad(Key{I: 6, J: 6}, func() ([]graph.Edge, int64, error) {
			close(started2)
			<-release2
			return mkEdges(6, 6, 2), 77, nil
		})
	}()
	<-started2
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		edges, hit, err := s.GetOrLoad(Key{I: 6, J: 6}, func() ([]graph.Edge, int64, error) {
			return nil, 0, errors.New("should not run")
		})
		if !hit || err != nil || len(edges) != 2 {
			t.Errorf("successful-flight waiter: edges=%d hit=%t err=%v", len(edges), hit, err)
		}
	}()
	for {
		if st := s.Stats(); st.DedupWaits == waiters+1 {
			break
		}
	}
	close(release2)
	<-waited
	st = s.Stats()
	if st.Hits != 1 || st.BytesSaved != 77 {
		t.Fatalf("successful dedup wait not counted as hit: %+v", st)
	}
}

// TestSharedNegativeCapacityClamped: a negative capacity behaves exactly
// like zero — nothing cached, inserts rejected cleanly, no eviction-loop
// arithmetic on a negative budget.
func TestSharedNegativeCapacityClamped(t *testing.T) {
	s := NewShared(-1)
	if s.Capacity() != 0 {
		t.Fatalf("Capacity() = %d, want 0", s.Capacity())
	}
	edges, hit, err := s.GetOrLoad(Key{I: 1, J: 1}, func() ([]graph.Edge, int64, error) {
		return mkEdges(1, 1, 3), 30, nil
	})
	if err != nil || hit || len(edges) != 3 {
		t.Fatalf("GetOrLoad on clamped cache: edges=%d hit=%t err=%v", len(edges), hit, err)
	}
	if s.Len() != 0 || s.Used() != 0 {
		t.Fatalf("clamped cache cached an entry: len=%d used=%d", s.Len(), s.Used())
	}
	if st := s.Stats(); st.Rejections != 1 || st.Insertions != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSharedGenerationFlipUnderConcurrentLoad is the mutable-graph cache
// contract under -race: while readers hammer GetOrLoad, a writer keeps
// bumping the content generation (as the delta store does after every
// mutation batch). A reader that keys its load with generation G must only
// ever be handed edges loaded for generation G — stale pre-mutation blocks
// may stay resident under their old keys, but must never satisfy a
// new-generation request.
func TestSharedGenerationFlipUnderConcurrentLoad(t *testing.T) {
	s := NewShared(4000) // small: old-generation entries churn out under pressure
	const (
		workers = 8
		blocks  = 6
		rounds  = 400
	)
	var gen atomic.Int64
	// Writer: flips the generation mid-traffic, like a mutation burst.
	stop := make(chan struct{})
	flipperDone := make(chan struct{})
	go func() {
		defer close(flipperDone)
		for {
			select {
			case <-stop:
				return
			default:
				gen.Add(1)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				g := gen.Load()
				k := Key{I: (w + r) % blocks, J: r % 2, Gen: g}
				// The loader stamps the generation into the edge it
				// returns; a hit from any other generation is detected
				// below.
				edges, _, err := s.GetOrLoad(k, func() ([]graph.Edge, int64, error) {
					return []graph.Edge{{Src: graph.VertexID(k.I), Dst: graph.VertexID(g)}}, 60, nil
				})
				if err != nil {
					t.Errorf("GetOrLoad(%v): %v", k, err)
					return
				}
				if int64(edges[0].Dst) != g || int(edges[0].Src) != k.I {
					t.Errorf("key %v served generation %d content", k, edges[0].Dst)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-flipperDone

	st := s.Stats()
	if st.Misses == 0 {
		t.Fatalf("generation flips forced no reloads: %+v", st)
	}
	if s.Used() > 4000 {
		t.Fatalf("used %d exceeds capacity", s.Used())
	}
	t.Logf("generation flip: %+v, final gen %d", st, gen.Load())
}

func TestSharedZeroCapacityStillDedups(t *testing.T) {
	s := NewShared(0)
	var loads atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := s.GetOrLoad(Key{I: 1, J: 1}, func() ([]graph.Edge, int64, error) {
				loads.Add(1)
				return mkEdges(1, 1, 1), 10, nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if s.Len() != 0 {
		t.Fatalf("zero-capacity cache holds %d entries", s.Len())
	}
	// Sequential calls each load (nothing resident), but any concurrent
	// overlap deduplicates; either way at most 8 loads and at least 1.
	if n := loads.Load(); n < 1 || n > 8 {
		t.Fatalf("loads = %d", n)
	}
	_ = fmt.Sprint(s.Stats())
}
