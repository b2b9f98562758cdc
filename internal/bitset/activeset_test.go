package bitset

import (
	"testing"
	"testing/quick"
)

func TestActiveSetBasics(t *testing.T) {
	s := NewActiveSet(100)
	if !s.Empty() || s.Count() != 0 || s.Len() != 100 {
		t.Fatalf("fresh set: Empty=%v Count=%d Len=%d", s.Empty(), s.Count(), s.Len())
	}
	if !s.Activate(10) {
		t.Fatal("Activate(10) reported not new")
	}
	if s.Activate(10) {
		t.Fatal("second Activate(10) reported new")
	}
	if s.Count() != 1 || !s.Contains(10) {
		t.Fatalf("Count=%d Contains(10)=%v", s.Count(), s.Contains(10))
	}
	if !s.Deactivate(10) {
		t.Fatal("Deactivate(10) reported not present")
	}
	if s.Deactivate(10) {
		t.Fatal("second Deactivate(10) reported present")
	}
	if !s.Empty() {
		t.Fatal("set not empty after deactivation")
	}
}

func TestActiveSetActivateAllReset(t *testing.T) {
	s := NewActiveSet(65)
	s.ActivateAll()
	if s.Count() != 65 {
		t.Fatalf("Count after ActivateAll = %d, want 65", s.Count())
	}
	s.Reset()
	if !s.Empty() {
		t.Fatal("not empty after Reset")
	}
}

func TestActiveSetRangeOps(t *testing.T) {
	s := NewActiveSet(100)
	for i := 0; i < 100; i += 5 {
		s.Activate(i)
	}
	if got := s.CountRange(10, 31); got != 5 { // 10,15,20,25,30
		t.Fatalf("CountRange(10,31) = %d, want 5", got)
	}
	var visited []int
	s.ForEachRange(10, 31, func(v int) bool {
		visited = append(visited, v)
		return true
	})
	want := []int{10, 15, 20, 25, 30}
	if len(visited) != len(want) {
		t.Fatalf("ForEachRange visited %v", visited)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("ForEachRange visited %v, want %v", visited, want)
		}
	}
}

func TestActiveSetCopyFrom(t *testing.T) {
	s := NewActiveSet(50)
	s.Activate(3)
	s.Activate(40)
	d := NewActiveSet(50)
	d.CopyFrom(s)
	if d.Count() != 2 || !d.Contains(3) || !d.Contains(40) {
		t.Fatalf("CopyFrom result wrong: %v", d.Slice())
	}
}

func TestActiveSetSubtract(t *testing.T) {
	a, b := NewActiveSet(30), NewActiveSet(30)
	a.Activate(1)
	a.Activate(2)
	a.Activate(3)
	b.Activate(2)
	b.Activate(3)
	a.Subtract(b)
	if a.Count() != 1 || !a.Contains(1) {
		t.Fatalf("subtract result wrong: %v", a.Slice())
	}
}

func TestActiveSetSliceSorted(t *testing.T) {
	s := NewActiveSet(64)
	for _, v := range []int{40, 2, 63, 17} {
		s.Activate(v)
	}
	got := s.Slice()
	want := []int{2, 17, 40, 63}
	if len(got) != len(want) {
		t.Fatalf("Slice = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
}

// Property: Count is always consistent with the number of Contains() hits
// under random activate/deactivate interleavings.
func TestPropertyActiveSetCount(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 256
		s := NewActiveSet(n)
		ref := make(map[int]bool)
		for i, op := range ops {
			v := int(op) % n
			if i%2 == 0 {
				s.Activate(v)
				ref[v] = true
			} else {
				s.Deactivate(v)
				delete(ref, v)
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		sum := 0
		for v := range ref {
			if !s.Contains(v) {
				return false
			}
			sum++
		}
		return sum == s.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: sum of interval counts equals the total count for any interval
// partitioning, which is exactly what the I/O scheduler relies on.
func TestPropertyActiveSetIntervalCounts(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		const n = 512
		s := NewActiveSet(n)
		for _, r := range raw {
			s.Activate(int(r) % n)
		}
		p := int(pRaw)%8 + 1
		per := (n + p - 1) / p
		total := 0
		for i := 0; i < p; i++ {
			lo := i * per
			hi := min(n, lo+per)
			total += s.CountRange(lo, hi)
		}
		return total == s.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestActiveSetWordsAddCount checks the raw-word activation the engine's
// scatter and apply loops use: bits set through Words, plus one AddCount of
// the bits that were new, must be indistinguishable from Activate calls.
func TestActiveSetWordsAddCount(t *testing.T) {
	const n = 1024
	s := NewActiveSet(n)
	s.Activate(5)
	s.Activate(700)

	words := s.Words()
	newly := 0
	for _, v := range []int{0, 5, 5, 188, 511, 512, 517, 517, 700, 1023} {
		if m := uint64(1) << (v % 64); words[v/64]&m == 0 {
			words[v/64] |= m
			newly++
		}
	}
	s.AddCount(newly)

	want := NewActiveSet(n)
	for _, v := range []int{5, 700, 0, 5, 188, 511, 512, 517, 700, 1023} {
		want.Activate(v)
	}
	if !equal(s, want) {
		t.Fatalf("set %s count %d, want %s count %d", render(s), s.Count(), render(want), want.Count())
	}
}

// TestPropertyActiveSetClearRange checks ClearRange against the per-bit
// Deactivate loop: same bits, same count, for ranges that start and end
// inside a word, on a word boundary, in the same word, outside the set and
// the wrong way round.
func TestPropertyActiveSetClearRange(t *testing.T) {
	checkRangeOp(t, (*ActiveSet).ClearRange, func(s *ActiveSet, v int) { s.Deactivate(v) })
	// A full set makes every cleared bit count.
	for _, r := range [][2]int{{0, 64}, {63, 65}, {64, 128}, {1, 63}, {0, 200}, {130, 131}, {128, 128}, {199, 200}} {
		s := NewActiveSet(200)
		s.ActivateAll()
		s.ClearRange(r[0], r[1])
		if want := 200 - (r[1] - r[0]); s.Count() != want || bitsSet(s) != want || s.CountRange(r[0], r[1]) != 0 {
			t.Fatalf("ClearRange(%d,%d) of a full set: count %d, bits %d, want %d", r[0], r[1], s.Count(), bitsSet(s), want)
		}
	}
}

// TestPropertyActiveSetFillRange checks FillRange against the per-bit
// Activate loop over the same ranges: same bits, same count.
func TestPropertyActiveSetFillRange(t *testing.T) {
	checkRangeOp(t, (*ActiveSet).FillRange, func(s *ActiveSet, v int) { s.Activate(v) })
	// An empty set makes every filled bit count; a filled range is whole.
	for _, r := range [][2]int{{0, 64}, {63, 65}, {64, 128}, {1, 63}, {0, 200}, {130, 131}, {128, 128}, {199, 200}} {
		s := NewActiveSet(200)
		s.FillRange(r[0], r[1])
		if want := r[1] - r[0]; s.Count() != want || bitsSet(s) != want || s.CountRange(r[0], r[1]) != want {
			t.Fatalf("FillRange(%d,%d) of an empty set: count %d, bits %d, want %d", r[0], r[1], s.Count(), bitsSet(s), want)
		}
	}
}

// checkRangeOp checks a range operation against the per-bit loop it stands
// for, over random sets and ranges that start and end inside a word, on a word
// boundary, in the same word, outside the set and the wrong way round.
func checkRangeOp(t *testing.T, op func(s *ActiveSet, lo, hi int), perBit func(s *ActiveSet, v int)) {
	t.Helper()
	check := func(n int, members []uint16, lo, hi int) bool {
		got, want := NewActiveSet(n), NewActiveSet(n)
		for _, m := range members {
			got.Activate(int(m) % n)
			want.Activate(int(m) % n)
		}
		op(got, lo, hi)
		for v := max(lo, 0); v < min(hi, n); v++ {
			perBit(want, v)
		}
		return equal(got, want) && got.Count() == bitsSet(got)
	}
	f := func(size uint16, members []uint16, a, b uint16, edge uint8) bool {
		n := int(size)%1000 + 1
		lo, hi := int(a)%(n+1), int(b)%(n+1)
		switch edge % 6 {
		case 0: // as drawn, possibly reversed
		case 1:
			lo &^= 63
		case 2:
			hi &^= 63
		case 3:
			lo, hi = lo&^63, min(n, lo&^63+64)
		case 4:
			lo, hi = -3, n+70
		case 5:
			hi = min(n, lo+int(edge)%64)
		}
		return check(n, members, lo, hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestActiveSetLoadWords: a Words snapshot loads back with its count, and a
// snapshot of the wrong length, or with a bit beyond the capacity, is refused
// and leaves the set as it was.
func TestActiveSetLoadWords(t *testing.T) {
	src := NewActiveSet(100)
	for _, v := range []int{0, 63, 64, 99} {
		src.Activate(v)
	}
	dst := NewActiveSet(100)
	dst.Activate(7)
	if err := dst.LoadWords(append([]uint64(nil), src.Words()...)); err != nil || !equal(dst, src) {
		t.Fatalf("LoadWords of a snapshot: %v, set %s count %d, want %s", err, render(dst), dst.Count(), render(src))
	}
	for name, words := range map[string][]uint64{
		"short":           {1},
		"beyond capacity": {1, 1 << 36},
	} {
		if err := dst.LoadWords(words); err == nil {
			t.Errorf("%s snapshot loaded", name)
		}
		if !equal(dst, src) {
			t.Errorf("%s snapshot changed the set to %s", name, render(dst))
		}
	}
}
