package bitset

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// equal reports whether a and b have the same capacity, the same words and
// the same cached count.
func equal(a, b *ActiveSet) bool {
	return a.n == b.n && a.count == b.count && slices.Equal(a.words, b.words)
}

// render lists a small set's vertices for failure messages.
func render(s *ActiveSet) string {
	const maxShown = 32
	out := "{"
	shown := 0
	s.ForEach(func(v int) bool {
		if shown > 0 {
			out += " "
		}
		if shown == maxShown {
			out += "..."
			return false
		}
		out += fmt.Sprint(v)
		shown++
		return true
	})
	return out + "}"
}

// bitsSet is the population count of the words, against which the cached
// count is checked.
func bitsSet(s *ActiveSet) int { return s.CountRange(0, s.Len()) }

func TestNewEmpty(t *testing.T) {
	s := NewActiveSet(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d, want 130", s.Len())
	}
	if s.Count() != 0 || bitsSet(s) != 0 {
		t.Fatalf("Count = %d, bits set %d, want 0", s.Count(), bitsSet(s))
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewActiveSet(-1) did not panic")
		}
	}()
	NewActiveSet(-1)
}

func TestSetTestClear(t *testing.T) {
	s := NewActiveSet(200)
	for _, v := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if s.Contains(v) {
			t.Fatalf("vertex %d active before Activate", v)
		}
		s.Activate(v)
		if !s.Contains(v) {
			t.Fatalf("vertex %d inactive after Activate", v)
		}
	}
	if got := s.Count(); got != 8 || bitsSet(s) != 8 {
		t.Fatalf("Count = %d, bits set %d, want 8", got, bitsSet(s))
	}
	s.Deactivate(64)
	if s.Contains(64) {
		t.Fatal("vertex 64 still active after Deactivate")
	}
	if got := s.Count(); got != 7 || bitsSet(s) != 7 {
		t.Fatalf("Count = %d, bits set %d, want 7", got, bitsSet(s))
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := NewActiveSet(10)
	for name, fn := range map[string]func(){
		"Activate":   func() { s.Activate(10) },
		"Deactivate": func() { s.Deactivate(-1) },
		"Contains":   func() { s.Contains(11) },
	} {
		func() {
			defer func() {
				err, _ := recover().(error)
				if err == nil || !strings.Contains(err.Error(), "out of range [0,10)") {
					t.Errorf("%s out of range: recovered %v, want the index and the range", name, err)
				}
			}()
			fn()
		}()
	}
	if s.Count() != 0 || bitsSet(s) != 0 {
		t.Fatalf("out-of-range calls changed the set: count %d, bits set %d", s.Count(), bitsSet(s))
	}
}

func TestTestAndSet(t *testing.T) {
	s := NewActiveSet(70)
	if !s.Activate(69) {
		t.Fatal("Activate reported an inactive vertex active")
	}
	if s.Activate(69) {
		t.Fatal("Activate reported an active vertex new")
	}
	if s.Count() != 1 || bitsSet(s) != 1 {
		t.Fatalf("Count = %d, bits set %d, want 1", s.Count(), bitsSet(s))
	}
}

func TestFillRespectsCapacity(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128} {
		s := NewActiveSet(n)
		s.ActivateAll()
		if s.Count() != n || bitsSet(s) != n {
			t.Errorf("n=%d: Count after ActivateAll = %d, bits set %d", n, s.Count(), bitsSet(s))
		}
		ones := 0
		for _, w := range s.Words() {
			for ; w != 0; w &= w - 1 {
				ones++
			}
		}
		if ones != n {
			t.Errorf("n=%d: %d bits set in the words, some beyond the capacity", n, ones)
		}
	}
}

func TestResetClearsAll(t *testing.T) {
	s := NewActiveSet(100)
	s.ActivateAll()
	s.Reset()
	if s.Count() != 0 || bitsSet(s) != 0 {
		t.Fatal("vertices remain active after Reset")
	}
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	s := NewActiveSet(150)
	want := []int{3, 64, 65, 100, 149}
	for _, v := range want {
		s.Activate(v)
	}
	var got []int
	s.ForEach(func(v int) bool {
		got = append(got, v)
		return true
	})
	if !slices.Equal(got, want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	// Early stop after two elements.
	count := 0
	s.ForEach(func(int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop visited %d, want 2", count)
	}
}

func TestForEachRange(t *testing.T) {
	s := NewActiveSet(200)
	for v := 0; v < 200; v += 10 {
		s.Activate(v)
	}
	var got []int
	s.ForEachRange(25, 75, func(v int) bool {
		got = append(got, v)
		return true
	})
	if want := []int{30, 40, 50, 60, 70}; !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestPropertyForEachRange: the word-at-a-time walk visits exactly the
// active vertices of the clamped range, ascending, and stops when told to.
func TestPropertyForEachRange(t *testing.T) {
	f := func(size uint16, members []uint16, a, b int16, stopAfter uint8) bool {
		n := int(size)%700 + 1
		s := NewActiveSet(n)
		for _, m := range members {
			s.Activate(int(m) % n)
		}
		lo, hi := int(a)%(n+80)-40, int(b)%(n+80)-40
		var want []int
		for v := max(lo, 0); v < min(hi, n); v++ {
			if s.Contains(v) {
				want = append(want, v)
			}
		}
		if k := int(stopAfter); k > 0 && k < len(want) {
			want = want[:k]
		}
		var got []int
		s.ForEachRange(lo, hi, func(v int) bool {
			got = append(got, v)
			return len(got) != int(stopAfter)
		})
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestCountRange(t *testing.T) {
	s := NewActiveSet(256)
	for v := 0; v < 256; v += 3 {
		s.Activate(v)
	}
	for _, c := range []struct{ lo, hi int }{
		{0, 256}, {0, 0}, {10, 10}, {0, 1}, {0, 64}, {63, 65},
		{64, 128}, {100, 101}, {5, 250}, {-5, 300}, {250, 200},
	} {
		want := 0
		for v := max(0, c.lo); v < min(256, c.hi); v++ {
			if s.Contains(v) {
				want++
			}
		}
		if got := s.CountRange(c.lo, c.hi); got != want {
			t.Errorf("CountRange(%d,%d) = %d, want %d", c.lo, c.hi, got, want)
		}
	}
}

func TestSetOps(t *testing.T) {
	a, b := NewActiveSet(100), NewActiveSet(100)
	for v := 0; v < 100; v += 2 {
		a.Activate(v)
	}
	for v := 0; v < 100; v += 3 {
		b.Activate(v)
	}

	a.Subtract(b)

	want := 0
	for v := 0; v < 100; v++ {
		ea, eb := v%2 == 0, v%3 == 0
		if a.Contains(v) != (ea && !eb) {
			t.Errorf("subtract vertex %d wrong", v)
		}
		if ea && !eb {
			want++
		}
	}
	if a.Count() != want || bitsSet(a) != want {
		t.Errorf("Count after Subtract = %d, bits set %d, want %d", a.Count(), bitsSet(a), want)
	}
}

func TestSetOpsCapacityMismatchPanics(t *testing.T) {
	a, b := NewActiveSet(10), NewActiveSet(20)
	for name, fn := range map[string]func(){
		"Subtract": func() { a.Subtract(b) },
		"CopyFrom": func() { a.CopyFrom(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched capacity did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEqual(t *testing.T) {
	a, b := NewActiveSet(90), NewActiveSet(90)
	if !equal(a, b) {
		t.Fatal("fresh equal-capacity sets not equal")
	}
	a.Activate(89)
	if equal(a, b) {
		t.Fatal("different sets reported equal")
	}
	b.Activate(89)
	if !equal(a, b) {
		t.Fatal("identical sets not equal")
	}
	if equal(a, NewActiveSet(91)) {
		t.Fatal("different capacities reported equal")
	}
}

func TestStringSmall(t *testing.T) {
	s := NewActiveSet(10)
	s.Activate(1)
	s.Activate(4)
	if got := render(s); got != "{1 4}" {
		t.Fatalf("render = %q, want {1 4}", got)
	}
}

// Property: the cached count and the bits set both equal the number of
// vertices for which Contains is true, under any sequence of
// Activate/Deactivate operations.
func TestPropertyCountMatchesTest(t *testing.T) {
	f := func(ops []uint16, activate []bool) bool {
		const n = 512
		s := NewActiveSet(n)
		ref := make(map[int]bool)
		for i, op := range ops {
			v := int(op) % n
			if i < len(activate) && activate[i] {
				s.Activate(v)
				ref[v] = true
			} else {
				s.Deactivate(v)
				delete(ref, v)
			}
		}
		if s.Count() != len(ref) || bitsSet(s) != len(ref) {
			return false
		}
		for v := 0; v < n; v++ {
			if s.Contains(v) != ref[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: CountRange(lo,hi) + CountRange(hi,n) + CountRange(0,lo) == Count.
func TestPropertyCountRangePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 777
	s := NewActiveSet(n)
	for v := 0; v < n; v++ {
		if rng.Intn(3) == 0 {
			s.Activate(v)
		}
	}
	for trial := 0; trial < 500; trial++ {
		lo, hi := rng.Intn(n+1), rng.Intn(n+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		total := s.CountRange(0, lo) + s.CountRange(lo, hi) + s.CountRange(hi, n)
		if total != s.Count() {
			t.Fatalf("partition counts %d != total %d (lo=%d hi=%d)", total, s.Count(), lo, hi)
		}
	}
}
