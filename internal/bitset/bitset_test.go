package bitset

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	b := New(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	if b.Count() != 0 {
		t.Fatalf("Count = %d, want 0", b.Count())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetTestClear(t *testing.T) {
	b := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if b.Test(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d clear after Set", i)
		}
	}
	if got := b.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	b.Clear(64)
	if b.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := b.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(10)
	for name, fn := range map[string]func(){
		"Set":        func() { b.Set(10) },
		"Clear":      func() { b.Clear(-1) },
		"Test":       func() { b.Test(11) },
		"TestAndSet": func() { b.TestAndSet(10) },
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
}

func TestTestAndSet(t *testing.T) {
	b := New(70)
	if b.TestAndSet(69) {
		t.Fatal("TestAndSet returned true on clear bit")
	}
	if !b.TestAndSet(69) {
		t.Fatal("TestAndSet returned false on set bit")
	}
	if b.Count() != 1 {
		t.Fatalf("Count = %d, want 1", b.Count())
	}
}

func TestFillRespectsCapacity(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128} {
		b := New(n)
		b.Fill()
		if got := b.Count(); got != n {
			t.Errorf("n=%d: Count after Fill = %d", n, got)
		}
	}
}

func TestResetClearsAll(t *testing.T) {
	b := New(100)
	b.Fill()
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("bits remain set after Reset")
	}
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	b := New(150)
	want := []int{3, 64, 65, 100, 149}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEach(func(i int) bool {
		got = append(got, i)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visited %v, want %v", got, want)
		}
	}
	// Early stop after two elements.
	count := 0
	b.ForEach(func(i int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop visited %d, want 2", count)
	}
}

func TestForEachRange(t *testing.T) {
	b := New(200)
	for i := 0; i < 200; i += 10 {
		b.Set(i)
	}
	var got []int
	b.ForEachRange(25, 75, func(i int) bool {
		got = append(got, i)
		return true
	})
	want := []int{30, 40, 50, 60, 70}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestPropertyForEachRange: the word-at-a-time walk visits exactly the set
// bits of the clamped range, ascending, and stops when told to.
func TestPropertyForEachRange(t *testing.T) {
	f := func(size uint16, members []uint16, a, b int16, stopAfter uint8) bool {
		n := int(size)%700 + 1
		bs := New(n)
		for _, m := range members {
			bs.Set(int(m) % n)
		}
		lo, hi := int(a)%(n+80)-40, int(b)%(n+80)-40
		var want []int
		for i := max(lo, 0); i < min(hi, n); i++ {
			if bs.Test(i) {
				want = append(want, i)
			}
		}
		if k := int(stopAfter); k > 0 && k < len(want) {
			want = want[:k]
		}
		var got []int
		bs.ForEachRange(lo, hi, func(i int) bool {
			got = append(got, i)
			return len(got) != int(stopAfter)
		})
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestCountRange(t *testing.T) {
	b := New(256)
	for i := 0; i < 256; i += 3 {
		b.Set(i)
	}
	for _, c := range []struct{ lo, hi int }{
		{0, 256}, {0, 0}, {10, 10}, {0, 1}, {0, 64}, {63, 65},
		{64, 128}, {100, 101}, {5, 250}, {-5, 300}, {250, 200},
	} {
		want := 0
		for i := max(0, c.lo); i < min(256, c.hi); i++ {
			if b.Test(i) {
				want++
			}
		}
		if got := b.CountRange(c.lo, c.hi); got != want {
			t.Errorf("CountRange(%d,%d) = %d, want %d", c.lo, c.hi, got, want)
		}
	}
}

func TestSetOps(t *testing.T) {
	a, b := New(100), New(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}

	a.AndNot(b)

	for i := 0; i < 100; i++ {
		ea, eb := i%2 == 0, i%3 == 0
		if a.Test(i) != (ea && !eb) {
			t.Errorf("andnot bit %d wrong", i)
		}
	}
}

func TestSetOpsCapacityMismatchPanics(t *testing.T) {
	a, b := New(10), New(20)
	for name, fn := range map[string]func(){
		"AndNot":   func() { a.AndNot(b) },
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
	a, b := New(90), New(90)
	if !a.Equal(b) {
		t.Fatal("fresh equal-capacity bitsets not Equal")
	}
	a.Set(89)
	if a.Equal(b) {
		t.Fatal("different bitsets reported Equal")
	}
	b.Set(89)
	if !a.Equal(b) {
		t.Fatal("identical bitsets not Equal")
	}
	if a.Equal(New(91)) {
		t.Fatal("different capacities reported Equal")
	}
}

func TestStringSmall(t *testing.T) {
	b := New(10)
	b.Set(1)
	b.Set(4)
	if got := b.String(); got != "{1 4}" {
		t.Fatalf("String() = %q, want {1 4}", got)
	}
}

// Property: Count always equals the number of indices for which Test is true,
// under any sequence of Set/Clear operations.
func TestPropertyCountMatchesTest(t *testing.T) {
	f := func(ops []uint16, setBits []bool) bool {
		const n = 512
		b := New(n)
		ref := make(map[int]bool)
		for i, op := range ops {
			idx := int(op) % n
			set := i < len(setBits) && setBits[i]
			if set {
				b.Set(idx)
				ref[idx] = true
			} else {
				b.Clear(idx)
				delete(ref, idx)
			}
		}
		if b.Count() != len(ref) {
			return false
		}
		for i := 0; i < n; i++ {
			if b.Test(i) != ref[i] {
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
	b := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			b.Set(i)
		}
	}
	for trial := 0; trial < 500; trial++ {
		lo, hi := rng.Intn(n+1), rng.Intn(n+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		total := b.CountRange(0, lo) + b.CountRange(lo, hi) + b.CountRange(hi, n)
		if total != b.Count() {
			t.Fatalf("partition counts %d != total %d (lo=%d hi=%d)", total, b.Count(), lo, hi)
		}
	}
}
