package bitset

import "testing"

func BenchmarkSet(b *testing.B) {
	s := NewActiveSet(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Activate(i & (1<<20 - 1))
	}
}

// BenchmarkCount times a popcount over every word, what Subtract and
// LoadWords pay to refresh the cached count that Count returns.
func BenchmarkCount(b *testing.B) {
	s := NewActiveSet(1 << 20)
	for i := 0; i < 1<<20; i += 3 {
		s.Activate(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.CountRange(0, s.Len()) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkCountRange(b *testing.B) {
	s := NewActiveSet(1 << 20)
	for i := 0; i < 1<<20; i += 3 {
		s.Activate(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CountRange(1000, 1<<19)
	}
}

func BenchmarkForEachSparse(b *testing.B) {
	s := NewActiveSet(1 << 20)
	for i := 0; i < 1<<20; i += 1024 {
		s.Activate(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.ForEach(func(int) bool { n++; return true })
		if n != 1024 {
			b.Fatalf("visited %d", n)
		}
	}
}
