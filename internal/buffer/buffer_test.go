package buffer

import (
	"reflect"
	"testing"
	"testing/quick"

	"github.com/graphsd/graphsd/internal/graph"
)

func edges(n int) []graph.Edge {
	out := make([]graph.Edge, n)
	for i := range out {
		out[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}
	}
	return out
}

func TestEmptyBufferMisses(t *testing.T) {
	b := New(100)
	if _, ok := b.Get(Key{I: 0, J: 0}); ok {
		t.Fatal("empty buffer hit")
	}
	s := b.Stats()
	if s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	b := New(1000)
	e := edges(5)
	if !b.Put(Key{I: 1, J: 2}, Block{Edges: e}, 40, 40, 10, nil) {
		t.Fatal("Put rejected with ample space")
	}
	got, ok := b.Get(Key{I: 1, J: 2})
	if !ok || len(got.Edges) != 5 {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	s := b.Stats()
	if s.Hits != 1 || s.Insertions != 1 || s.BytesSaved != 40 {
		t.Fatalf("stats = %+v", s)
	}
	if b.st.used != 40 || b.Len() != 1 || b.Capacity() != 1000 {
		t.Fatalf("Used=%d Len=%d Cap=%d", b.st.used, b.Len(), b.Capacity())
	}
}

func TestZeroCapacityCachesNothing(t *testing.T) {
	b := New(0)
	if b.Put(Key{I: 0, J: 0}, Block{Edges: edges(1)}, 8, 8, 100, nil) {
		t.Fatal("zero-capacity buffer accepted an entry")
	}
	if b.Stats().Rejections != 1 {
		t.Fatalf("stats = %+v", b.Stats())
	}
}

func TestOversizeRejected(t *testing.T) {
	b := New(100)
	if b.Put(Key{I: 0, J: 0}, Block{Edges: edges(20)}, 160, 160, 1, nil) {
		t.Fatal("oversize entry accepted")
	}
	if b.Put(Key{I: 0, J: 0}, Block{}, -1, -1, 1, nil) {
		t.Fatal("negative size accepted")
	}
}

func TestEvictsLowestPriority(t *testing.T) {
	b := New(100)
	b.Put(Key{I: 0, J: 0}, Block{Edges: edges(1)}, 40, 40, 5, nil)  // low priority
	b.Put(Key{I: 1, J: 0}, Block{Edges: edges(1)}, 40, 40, 50, nil) // high priority
	// Needs 40 bytes; must evict (0,0), not (1,0).
	if !b.Put(Key{I: 2, J: 0}, Block{Edges: edges(1)}, 40, 40, 20, nil) {
		t.Fatal("insertion with evictable victim rejected")
	}
	if b.Contains(Key{I: 0, J: 0}) {
		t.Fatal("low-priority entry survived")
	}
	if !b.Contains(Key{I: 1, J: 0}) || !b.Contains(Key{I: 2, J: 0}) {
		t.Fatal("wrong victim evicted")
	}
	if b.Stats().Evictions != 1 {
		t.Fatalf("stats = %+v", b.Stats())
	}
}

func TestRejectsWhenAllResidentsHigherPriority(t *testing.T) {
	b := New(80)
	b.Put(Key{I: 0, J: 0}, Block{Edges: edges(1)}, 40, 40, 100, nil)
	b.Put(Key{I: 1, J: 0}, Block{Edges: edges(1)}, 40, 40, 90, nil)
	if b.Put(Key{I: 2, J: 0}, Block{Edges: edges(1)}, 40, 40, 10, nil) {
		t.Fatal("low-priority candidate displaced higher-priority residents")
	}
	if !b.Contains(Key{I: 0, J: 0}) || !b.Contains(Key{I: 1, J: 0}) {
		t.Fatal("residents were disturbed")
	}
	// Equal priority must not displace either (strict inequality).
	if b.Put(Key{I: 3, J: 0}, Block{Edges: edges(1)}, 40, 40, 90, nil) {
		t.Fatal("equal-priority candidate displaced a resident")
	}
}

func TestEvictsMultipleVictims(t *testing.T) {
	b := New(100)
	b.Put(Key{I: 0, J: 0}, Block{Edges: edges(1)}, 30, 30, 1, nil)
	b.Put(Key{I: 1, J: 0}, Block{Edges: edges(1)}, 30, 30, 2, nil)
	b.Put(Key{I: 2, J: 0}, Block{Edges: edges(1)}, 30, 30, 3, nil)
	// 90 bytes used; an 80-byte candidate at priority 10 must evict all three.
	if !b.Put(Key{I: 3, J: 0}, Block{Edges: edges(1)}, 80, 80, 10, nil) {
		t.Fatal("multi-victim insertion rejected")
	}
	if b.Len() != 1 || b.st.used != 80 {
		t.Fatalf("Len=%d Used=%d", b.Len(), b.st.used)
	}
	if b.Stats().Evictions != 3 {
		t.Fatalf("evictions = %d", b.Stats().Evictions)
	}
}

func TestPutExistingRefreshesPriority(t *testing.T) {
	b := New(100)
	b.Put(Key{I: 0, J: 0}, Block{Edges: edges(1)}, 40, 40, 1, nil)
	b.Put(Key{I: 1, J: 0}, Block{Edges: edges(1)}, 40, 40, 50, nil)
	// Refresh (0,0) to a high priority; no new insertion recorded.
	if !b.Put(Key{I: 0, J: 0}, Block{Edges: edges(1)}, 40, 40, 60, nil) {
		t.Fatal("refresh rejected")
	}
	if b.Stats().Insertions != 2 {
		t.Fatalf("insertions = %d", b.Stats().Insertions)
	}
	// Now (1,0) is the lowest priority and must be the victim.
	if !b.Put(Key{I: 2, J: 0}, Block{Edges: edges(1)}, 40, 40, 55, nil) {
		t.Fatal("insertion rejected")
	}
	if b.Contains(Key{I: 1, J: 0}) || !b.Contains(Key{I: 0, J: 0}) {
		t.Fatal("priority refresh not honoured by eviction")
	}
}

func TestPriorityTiesBreakByInsertionOrder(t *testing.T) {
	// Equal priorities: the earliest-inserted entry must be the victim,
	// deterministically, regardless of map iteration order.
	for trial := 0; trial < 20; trial++ {
		b := New(120)
		b.Put(Key{I: 0, J: 0}, Block{Edges: edges(1)}, 40, 40, 5, nil)
		b.Put(Key{I: 1, J: 0}, Block{Edges: edges(1)}, 40, 40, 5, nil)
		b.Put(Key{I: 2, J: 0}, Block{Edges: edges(1)}, 40, 40, 5, nil)
		if !b.Put(Key{I: 3, J: 0}, Block{Edges: edges(1)}, 40, 40, 9, nil) {
			t.Fatal("insertion rejected")
		}
		if b.Contains(Key{I: 0, J: 0}) || !b.Contains(Key{I: 1, J: 0}) || !b.Contains(Key{I: 2, J: 0}) {
			t.Fatalf("trial %d: wrong victim among ties", trial)
		}
	}
}

// Property: Used() always equals the sum of resident sizes and never
// exceeds capacity, for any operation sequence.
func TestPropertyUsedWithinCapacity(t *testing.T) {
	f := func(ops []uint16) bool {
		const capacity = 500
		b := New(capacity)
		for _, op := range ops {
			k := Key{I: int(op % 7), J: int(op / 7 % 7)}
			switch op % 3 {
			case 0:
				b.Put(k, Block{}, int64(op%200), int64(op%200), int64(op%13), nil)
			case 1:
				b.Get(k)
			case 2:
				b.Reprioritize(func(Key, Block) int64 { return int64(op % 29) })
			}
			if b.st.used > capacity || b.st.used < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A Block comes back from the buffer in the form it went in, charged what that
// form occupies — the decoded bytes for edges, its own length for a payload —
// while a hit saves what the device would have moved: the on-disk size, given
// separately, the only one of the three that reaches BytesSaved.
func TestBlockRoundTripsInEitherForm(t *testing.T) {
	const decoded, onDisk = 60, 20
	for _, tc := range []struct {
		name   string
		blk    Block
		charge int64
	}{
		{"decoded edges", Block{Edges: edges(5)}, decoded},
		{"delta payload", Block{Payload: []byte{1, 2, 3, 4}}, 4},
		{"empty sub-block", Block{}, decoded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := New(100)
			k := Key{I: 1, J: 0}
			if !b.Put(k, tc.blk, decoded, onDisk, 5, nil) {
				t.Fatal("Put rejected with room to spare")
			}
			if b.st.used != tc.charge {
				t.Fatalf("Used = %d, want %d", b.st.used, tc.charge)
			}
			same := func(got Block) bool { return reflect.DeepEqual(got, tc.blk) }
			if got, ok := b.Peek(k); !ok || !same(got) {
				t.Fatalf("Peek = (%+v, %t)", got, ok)
			}
			if st := b.Stats(); st.Hits != 0 || st.Misses != 0 {
				t.Fatalf("Peek touched the counters: %+v", st)
			}
			for n := 0; n < 2; n++ {
				if got, ok := b.Get(k); !ok || !same(got) {
					t.Fatalf("Get = (%+v, %t)", got, ok)
				}
			}
			if st := b.Stats(); st.Hits != 2 || st.BytesSaved != 2*onDisk || st.Insertions != 1 {
				t.Fatalf("stats = %+v, want 2 hits saving 2×%d on-disk bytes", st, onDisk)
			}
		})
	}
}
