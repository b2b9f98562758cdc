package core

import (
	"encoding/binary"
	"math"
	"testing"
)

// refEntry and refHeap are a plain binary min-heap over (value, vertex), ties
// to the lower vertex: the order valueQueue must pop in.
type refEntry struct {
	val float64
	v   uint32
}

type refHeap []refEntry

func (x refEntry) before(y refEntry) bool { return x.val < y.val || x.val == y.val && x.v < y.v }

func (h *refHeap) push(x refEntry) {
	*h = append(*h, x)
	for k := len(*h) - 1; k > 0 && (*h)[k].before((*h)[(k-1)/2]); k = (k - 1) / 2 {
		(*h)[k], (*h)[(k-1)/2] = (*h)[(k-1)/2], (*h)[k]
	}
}

func (h *refHeap) pop() refEntry {
	s := *h
	top := s[0]
	s[0] = s[len(s)-1]
	s = s[:len(s)-1]
	for k := 0; ; {
		c := 2*k + 1
		if c+1 < len(s) && s[c+1].before(s[c]) {
			c++
		}
		if c >= len(s) || !s[c].before(s[k]) {
			break
		}
		s[k], s[c] = s[c], s[k]
		k = c
	}
	*h = s
	return top
}

// FuzzValueQueue drives valueQueue and refHeap through one sequence of
// pushes, pops and resets and requires every pop to agree on value and
// vertex. Each op is a byte whose low three bits pick it; a push then takes a
// vertex byte (sixteen vertices, so ties are common) and a value: an integer,
// ±0, a value at or below the last pop — as an edge that lowers the value it
// carries pushes — or any 64-bit pattern but NaN, for large spreads.
func FuzzValueQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 7, 1, 5, 7, 0, 0, 0})
	f.Add([]byte{2, 1, 2, 2, 3, 2, 0, 4, 9, 0, 4, 1, 0, 0, 0})
	f.Add([]byte{5, 1, 0, 0, 0, 0, 0, 0, 0x40, 0, 5, 2, 0, 0, 0, 0, 0, 0, 0xc0, 0, 0, 0, 0})
	f.Add([]byte{1, 9, 200, 0, 6, 3, 1, 4, 50, 0, 6, 1, 0, 0, 7, 1, 2, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Limits below what a long sequence pushes, so that grow also runs
		// past them.
		var q valueQueue
		q.reset(8, 4)
		var ref refHeap
		last := 0.0
		take := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		check := func() {
			got, ok := q.pop()
			if ok != (len(ref) > 0) {
				t.Fatalf("queue ok=%t with %d reference entries", ok, len(ref))
			}
			if !ok {
				return
			}
			want := ref.pop()
			if got.val != want.val || got.v != want.v {
				t.Fatalf("popped (%v, %d), reference (%v, %d)", got.val, got.v, want.val, want.v)
			}
			last = got.val
		}
		for len(data) > 0 {
			op := take()
			var val float64
			switch op & 7 {
			case 0:
				check()
				continue
			case 1:
				val = float64(int8(take()))
			case 2:
				val = math.Copysign(0, float64(int8(take())))
			case 3:
				val = last
			case 4:
				val = last - float64(take())/4
			case 5:
				var b [8]byte
				for k := range b {
					b[k] = take()
				}
				if val = math.Float64frombits(binary.LittleEndian.Uint64(b[:])); math.IsNaN(val) {
					val = math.Inf(int(op>>7)*2 - 1)
				}
			case 6:
				val = last + float64(take())
			case 7:
				q.reset(8, 4)
				ref, last = ref[:0], 0
				continue
			}
			v := uint32(take() & 15)
			q.push(val, v)
			ref.push(refEntry{val, v})
		}
		for len(ref) > 0 {
			check()
		}
		if _, ok := q.pop(); ok {
			t.Fatal("queue still holds entries the reference does not")
		}
	})
}

// TestValueQueueGrowsToItsLimits: the arena and the ties heap never grow past
// the pushes and vertices a phase declares, which drainBytes charges for, and
// still take a push beyond them.
func TestValueQueueGrowsToItsLimits(t *testing.T) {
	var q valueQueue
	q.reset(100, 10)
	for v := range uint32(10) {
		q.push(0, v)
	}
	for v := range uint32(90) {
		q.push(float64(v+1), v)
	}
	// The first pop moves the ten entries at 0 to ties.
	for want := range uint32(10) {
		if e, _ := q.pop(); e.val != 0 || e.v != want {
			t.Fatalf("pop %d is (%v, %d), want (0, %d)", want, e.val, e.v, want)
		}
		if want == 0 {
			if cap(q.arena) != 100 || cap(q.ties) != 10 {
				t.Fatalf("arena capacity %d, ties capacity %d; want 100 and 10", cap(q.arena), cap(q.ties))
			}
			q.push(1000, 0)
		}
	}
	n := 10
	for {
		if _, ok := q.pop(); !ok {
			break
		}
		n++
	}
	if n != 101 {
		t.Fatalf("popped %d entries, pushed 101", n)
	}
}
