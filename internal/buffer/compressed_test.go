package buffer

import (
	"sync"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/graph"
)

// The compressed tier: payload blocks in the per-run Buffer and the Shared
// compressed mode (NewSharedCompressed / GetOrLoadBlock), plus the aliasing
// contract of handed-out slices under concurrent eviction.

func TestBufferPayloadEviction(t *testing.T) {
	b := New(10)
	if !b.Put(Key{I: 1, J: 0}, Block{Payload: make([]byte, 6)}, 600, 60, 1, nil) {
		t.Fatal("first payload rejected")
	}
	// A higher-priority candidate evicts the low-priority payload resident.
	if !b.Put(Key{I: 2, J: 0}, Block{Payload: make([]byte, 8)}, 800, 80, 9, nil) {
		t.Fatal("higher-priority payload rejected")
	}
	if b.Contains(Key{I: 1, J: 0}) {
		t.Fatal("low-priority payload survived eviction")
	}
	if st := b.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions=%d, want 1", st.Evictions)
	}
	// A lower-priority candidate that doesn't fit is rejected.
	if b.Put(Key{I: 3, J: 0}, Block{Payload: make([]byte, 8)}, 800, 80, 1, nil) {
		t.Fatal("low-priority payload displaced a higher-priority resident")
	}
}

// TestPutHandsBackEvictedPayloads: given spent, the per-run door appends the
// payload of every resident it evicts, in eviction order, and nothing else —
// not a decoded resident's edges, not the candidate it rejects — and leaves
// every counter as a Put that drops them does.
func TestPutHandsBackEvictedPayloads(t *testing.T) {
	low, mid := make([]byte, 3), make([]byte, 4)
	b, plain := New(10), New(10)
	for _, c := range []struct {
		k        Key
		blk      Block
		decoded  int64
		priority int64
	}{
		{Key{I: 0}, Block{Payload: low}, 300, 1},
		{Key{I: 1}, Block{Edges: make([]graph.Edge, 1)}, 3, 2},
		{Key{I: 2}, Block{Payload: mid}, 400, 3},
		{Key{I: 3}, Block{Payload: make([]byte, 10)}, 1000, 9}, // evicts all three
		{Key{I: 4}, Block{Payload: make([]byte, 2)}, 200, 1},   // rejected
	} {
		var spent [][]byte
		got := b.Put(c.k, c.blk, c.decoded, c.decoded, c.priority, &spent)
		if want := plain.Put(c.k, c.blk, c.decoded, c.decoded, c.priority, nil); got != want {
			t.Fatalf("%v: resident %t handing back, %t dropping", c.k, got, want)
		}
		if c.k.I == 3 {
			if len(spent) != 2 || &spent[0][0] != &low[0] || &spent[1][0] != &mid[0] {
				t.Fatalf("evicting two payloads and a decoded block handed back %d slices", len(spent))
			}
		} else if len(spent) != 0 {
			t.Fatalf("%v: %d payloads handed back with nothing evicted", c.k, len(spent))
		}
	}
	if b.Stats() != plain.Stats() || b.Used() != plain.Used() {
		t.Fatalf("stats %+v, used %d handing back; %+v, %d dropping", b.Stats(), b.Used(), plain.Stats(), plain.Used())
	}
}

func TestSharedCompressedRoundTrip(t *testing.T) {
	s := NewSharedCompressed(1000)
	if !s.Compressed() {
		t.Fatal("NewSharedCompressed not marked compressed")
	}
	if NewShared(1000).Compressed() {
		t.Fatal("NewShared marked compressed")
	}

	k := Key{I: 0, J: 1}
	payload := []byte{9, 8, 7}
	loads := 0
	load := func() (Block, int64, error) {
		loads++
		return Block{Payload: payload}, 30, nil
	}

	got, hit, err := s.GetOrLoadBlock(k, load)
	if err != nil || hit || string(got.Payload) != string(payload) || got.Edges != nil {
		t.Fatalf("cold GetOrLoadBlock = (%v, %t, %v)", got, hit, err)
	}
	got, hit, err = s.GetOrLoadBlock(k, load)
	if err != nil || !hit || string(got.Payload) != string(payload) || got.Edges != nil {
		t.Fatalf("warm GetOrLoadBlock = (%v, %t, %v)", got, hit, err)
	}
	if loads != 1 {
		t.Fatalf("load ran %d times, want 1", loads)
	}

	st := s.Stats()
	if st.Hits != 1 || st.CompressedHits != 1 || st.Misses != 1 {
		t.Fatalf("stats hits=%d compressed=%d misses=%d, want 1/1/1", st.Hits, st.CompressedHits, st.Misses)
	}
	// Hits save the decoded size; capacity is charged at the encoded size.
	if st.BytesSaved != 30 {
		t.Fatalf("bytes saved %d, want decoded 30", st.BytesSaved)
	}
	if s.Used() != int64(len(payload)) {
		t.Fatalf("used %d, want encoded %d", s.Used(), len(payload))
	}

	s.NoteDecode(3 * time.Millisecond)
	s.NoteDecode(2 * time.Millisecond)
	if d := s.Stats().DecodeTime; d != 5*time.Millisecond {
		t.Fatalf("decode time %v, want 5ms", d)
	}
}

func TestSharedCompressedDedup(t *testing.T) {
	s := NewSharedCompressed(1000)
	release := make(chan struct{})
	var loads int
	const callers = 4
	var wg sync.WaitGroup
	results := make([][]byte, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			blk, _, err := s.GetOrLoadBlock(Key{I: 5, J: 5}, func() (Block, int64, error) {
				loads++ // single flight: only one goroutine runs this
				<-release
				return Block{Payload: []byte{42}}, 10, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[c] = blk.Payload
		}(c)
	}
	// Let the callers pile up on the single flight, then release it.
	for s.Stats().DedupWaits+1 < callers {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if loads != 1 {
		t.Fatalf("load ran %d times under %d concurrent callers", loads, callers)
	}
	for c, p := range results {
		if len(p) != 1 || p[0] != 42 {
			t.Fatalf("caller %d got %v", c, p)
		}
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != callers-1 || st.CompressedHits != callers-1 {
		t.Fatalf("stats %+v after dedup, want 1 miss and %d compressed hits", st, callers-1)
	}
}

// TestSharedSliceSurvivesEviction exercises GetOrLoad's aliasing contract
// under the race detector: a slice it handed out stays valid and unchanged
// while concurrent loads evict the entry it came from and load it again.
func TestSharedSliceSurvivesEviction(t *testing.T) {
	rec := int64(graph.EdgeBytes)
	s := NewShared(4 * rec) // room for ~4 single-edge blocks
	loadOne := func(i, j int) func() ([]graph.Edge, int64, error) {
		return func() ([]graph.Edge, int64, error) {
			return []graph.Edge{{Src: graph.VertexID(i), Dst: graph.VertexID(j)}}, rec, nil
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writer: churn the cache so Key{0,0} is evicted and reloaded.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.GetOrLoad(Key{I: i % 64, J: 1}, loadOne(i%64, 1))
		}
	}()
	// Readers: take the block and keep reading every slice they were ever
	// handed, long after its entry may have been evicted. Any write-after-evict
	// or reuse of a handed-out slice would trip -race or the check.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held [][]graph.Edge
			for n := 0; n < 2000; n++ {
				edges, _, err := s.GetOrLoad(Key{I: 0, J: 0}, loadOne(0, 0))
				if err != nil || len(edges) != 1 {
					t.Errorf("GetOrLoad: edges=%d err=%v", len(edges), err)
					return
				}
				if len(held) == 0 || &held[len(held)-1][0] != &edges[0] {
					held = append(held, edges)
				}
				for _, h := range held {
					if h[0].Src != 0 || h[0].Dst != 0 {
						t.Error("handed-out slice mutated after eviction")
						return
					}
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatalf("the churn evicted nothing: %+v", st)
	}
}
