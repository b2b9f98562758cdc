package buffer

import (
	"sync"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/graph"
)

// The compressed tier: payload entries in the per-run Buffer (PutBytes /
// GetEntry / PeekEntry) and the Shared compressed mode (NewSharedCompressed /
// GetOrLoadBytes), plus the Peek aliasing contract under concurrent eviction.

func TestBufferPayloadEntries(t *testing.T) {
	b := New(100)
	k := Key{I: 1, J: 0}
	payload := []byte{1, 2, 3, 4}
	if !b.PutBytes(k, payload, 40, 5) {
		t.Fatal("payload rejected with room to spare")
	}
	// Capacity is charged at the encoded size, not the decoded size.
	if b.Used() != int64(len(payload)) {
		t.Fatalf("used %d, want encoded size %d", b.Used(), len(payload))
	}

	// The decoded-path accessors must miss: they cannot hand a payload to
	// a caller expecting edges.
	if _, ok := b.Get(k); ok {
		t.Fatal("Get returned a payload entry")
	}
	if _, ok := b.Peek(k); ok {
		t.Fatal("Peek returned a payload entry")
	}

	// The entry accessors see it, with hit accounting at the saved (on-disk)
	// size it was put with.
	gotE, gotP, ok := b.GetEntry(k)
	if !ok || gotE != nil || string(gotP) != string(payload) {
		t.Fatalf("GetEntry = (%v, %v, %t)", gotE, gotP, ok)
	}
	if st := b.Stats(); st.Hits != 1 || st.BytesSaved != 40 {
		t.Fatalf("after payload hit: hits=%d saved=%d, want 1/40", st.Hits, st.BytesSaved)
	}
	peekE, peekP, ok := b.PeekEntry(k)
	if !ok || peekE != nil || string(peekP) != string(payload) {
		t.Fatalf("PeekEntry = (%v, %v, %t)", peekE, peekP, ok)
	}
	if st := b.Stats(); st.Hits != 1 {
		t.Fatal("PeekEntry touched the hit counter")
	}
}

func TestBufferPayloadEviction(t *testing.T) {
	b := New(10)
	if !b.PutBytes(Key{I: 1, J: 0}, make([]byte, 6), 60, 1) {
		t.Fatal("first payload rejected")
	}
	// A higher-priority candidate evicts the low-priority payload resident.
	if !b.PutBytes(Key{I: 2, J: 0}, make([]byte, 8), 80, 9) {
		t.Fatal("higher-priority payload rejected")
	}
	if b.Contains(Key{I: 1, J: 0}) {
		t.Fatal("low-priority payload survived eviction")
	}
	if st := b.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions=%d, want 1", st.Evictions)
	}
	// A lower-priority candidate that doesn't fit is rejected.
	if b.PutBytes(Key{I: 3, J: 0}, make([]byte, 8), 80, 1) {
		t.Fatal("low-priority payload displaced a higher-priority resident")
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
	load := func() ([]byte, int64, error) {
		loads++
		return payload, 30, nil
	}

	got, hit, err := s.GetOrLoadBytes(k, load)
	if err != nil || hit || string(got) != string(payload) {
		t.Fatalf("cold GetOrLoadBytes = (%v, %t, %v)", got, hit, err)
	}
	got, hit, err = s.GetOrLoadBytes(k, load)
	if err != nil || !hit || string(got) != string(payload) {
		t.Fatalf("warm GetOrLoadBytes = (%v, %t, %v)", got, hit, err)
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

	// Peek never exposes payload entries: there are no decoded edges to
	// alias.
	if _, ok := s.Peek(k); ok {
		t.Fatal("Peek returned a compressed entry")
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
			p, _, err := s.GetOrLoadBytes(Key{I: 5, J: 5}, func() ([]byte, int64, error) {
				loads++ // single flight: only one goroutine runs this
				<-release
				return []byte{42}, 10, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[c] = p
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

// TestSharedPeekSurvivesEviction exercises the documented aliasing contract
// under the race detector: a slice returned by Peek stays valid and unchanged
// while concurrent loads evict the entry it came from.
func TestSharedPeekSurvivesEviction(t *testing.T) {
	rec := int64(graph.EdgeBytes)
	s := NewShared(4 * rec) // room for ~4 single-edge blocks
	loadOne := func(i, j int) func() ([]graph.Edge, int64, error) {
		return func() ([]graph.Edge, int64, error) {
			return []graph.Edge{{Src: graph.VertexID(i), Dst: graph.VertexID(j)}}, rec, nil
		}
	}
	if _, _, err := s.GetOrLoad(Key{I: 0, J: 0}, loadOne(0, 0)); err != nil {
		t.Fatal(err)
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
			s.GetOrLoad(Key{I: 0, J: 0}, loadOne(0, 0))
		}
	}()
	// Readers: peek and then keep reading the returned slice after the
	// entry may have been evicted. Any write-after-evict would trip -race.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 2000; n++ {
				if edges, ok := s.Peek(Key{I: 0, J: 0}); ok {
					if edges[0].Src != 0 || edges[0].Dst != 0 {
						t.Error("peeked slice mutated after eviction")
						return
					}
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}
