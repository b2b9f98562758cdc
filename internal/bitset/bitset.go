// Package bitset provides a dense fixed-capacity bitset and a hybrid
// active-vertex set used throughout the GraphSD engine to track which
// vertices are active in an iteration.
//
// The representations are chosen for the access patterns of out-of-core
// graph processing: O(1) activation, cheap population counts (needed every
// iteration by the state-aware I/O scheduler), and fast in-order iteration
// (needed by the selective update model to walk active vertices interval by
// interval).
package bitset

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Bitset is a fixed-capacity dense bitset. The zero value is an empty
// bitset of capacity zero; use New to create one with capacity.
//
// Bitset is not safe for concurrent mutation. Concurrent readers are safe
// once all writers have finished.
type Bitset struct {
	words []uint64
	n     int // capacity in bits
}

// New returns a Bitset capable of holding n bits, all initially clear.
func New(n int) *Bitset {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", n))
	}
	return &Bitset{
		words: make([]uint64, (n+wordBits-1)/wordBits),
		n:     n,
	}
}

// Len returns the capacity of the bitset in bits.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i. It panics if i is out of range.
func (b *Bitset) Set(i int) {
	b.check(i)
	b.words[uint(i)/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i. It panics if i is out of range.
func (b *Bitset) Clear(i int) {
	b.check(i)
	b.words[uint(i)/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is set. It panics if i is out of range.
func (b *Bitset) Test(i int) bool {
	b.check(i)
	return b.words[uint(i)/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// TestAndSet sets bit i and reports whether it was previously set.
func (b *Bitset) TestAndSet(i int) bool {
	b.check(i)
	w, m := uint(i)/wordBits, uint64(1)<<(uint(i)%wordBits)
	old := b.words[w]
	b.words[w] = old | m
	return old&m != 0
}

// check panics with an indexError when i is out of range. The message is
// formatted only if the panic is printed: a call to fmt here would cost the
// one-word accessors above their place in the inliner's budget.
func (b *Bitset) check(i int) {
	if uint(i) >= uint(b.n) {
		panic(indexError{i, b.n})
	}
}

type indexError struct{ i, n int }

func (e indexError) Error() string {
	return fmt.Sprintf("bitset: index %d out of range [0,%d)", e.i, e.n)
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountRange returns the number of set bits in the half-open range [lo, hi).
func (b *Bitset) CountRange(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	if lo >= hi {
		return 0
	}
	c := 0
	loW, hiW := lo/wordBits, (hi-1)/wordBits
	if loW == hiW {
		mask := rangeMask(uint(lo%wordBits), uint((hi-1)%wordBits)+1)
		return bits.OnesCount64(b.words[loW] & mask)
	}
	c += bits.OnesCount64(b.words[loW] &^ ((1 << (uint(lo) % wordBits)) - 1))
	for w := loW + 1; w < hiW; w++ {
		c += bits.OnesCount64(b.words[w])
	}
	last := uint((hi-1)%wordBits) + 1
	c += bits.OnesCount64(b.words[hiW] & rangeMask(0, last))
	return c
}

// ClearRange clears every bit in the half-open range [lo, hi), clamped to
// the capacity like CountRange, and returns how many bits it cleared.
func (b *Bitset) ClearRange(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	if lo >= hi {
		return 0
	}
	loW, hiW := lo/wordBits, (hi-1)/wordBits
	last := uint((hi-1)%wordBits) + 1
	if loW == hiW {
		return b.clearMask(loW, rangeMask(uint(lo%wordBits), last))
	}
	c := b.clearMask(loW, rangeMask(uint(lo%wordBits), wordBits))
	for w := loW + 1; w < hiW; w++ {
		c += bits.OnesCount64(b.words[w])
		b.words[w] = 0
	}
	return c + b.clearMask(hiW, rangeMask(0, last))
}

// clearMask clears the bits of mask in word w and returns how many were set.
func (b *Bitset) clearMask(w int, mask uint64) int {
	c := bits.OnesCount64(b.words[w] & mask)
	b.words[w] &^= mask
	return c
}

// rangeMask returns a mask with bits [lo, hi) set, hi <= 64.
func rangeMask(lo, hi uint) uint64 {
	if hi >= wordBits {
		return ^uint64(0) << lo
	}
	return (^uint64(0) << lo) & ((1 << hi) - 1)
}

// Reset clears every bit.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Fill sets every bit in [0, Len()).
func (b *Bitset) Fill() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	// Zero the bits beyond n in the final word.
	if rem := b.n % wordBits; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Words exposes the underlying 64-bit words (LSB-first within each word)
// for serialization and for loops that test or set many bits without a call
// per bit. The returned slice aliases the bitset.
func (b *Bitset) Words() []uint64 { return b.words }

// SetWords overwrites the bitset from a Words snapshot of a bitset with the
// same capacity.
func (b *Bitset) SetWords(words []uint64) error {
	if len(words) != len(b.words) {
		return fmt.Errorf("bitset: SetWords length %d, want %d", len(words), len(b.words))
	}
	copy(b.words, words)
	return nil
}

// CopyFrom overwrites the receiver with the contents of src.
// The two bitsets must have the same capacity.
func (b *Bitset) CopyFrom(src *Bitset) {
	if b.n != src.n {
		panic(fmt.Sprintf("bitset: CopyFrom capacity mismatch %d != %d", b.n, src.n))
	}
	copy(b.words, src.words)
}

// AndNot clears every bit in the receiver that is set in other.
func (b *Bitset) AndNot(other *Bitset) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitset: AndNot capacity mismatch %d != %d", b.n, other.n))
	}
	for i, w := range other.words {
		b.words[i] &^= w
	}
}

// ForEach calls fn for every set bit in ascending order. If fn returns
// false, iteration stops early.
func (b *Bitset) ForEach(fn func(i int) bool) {
	for w, word := range b.words {
		for word != 0 {
			tz := bits.TrailingZeros64(word)
			if !fn(w*wordBits + tz) {
				return
			}
			word &= word - 1
		}
	}
}

// ForEachRange calls fn for every set bit in [lo, hi), clamped to the
// capacity, in ascending order. If fn returns false, iteration stops early.
// Like ForEach it reads each word once, before visiting that word's bits.
func (b *Bitset) ForEachRange(lo, hi int, fn func(i int) bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	for w := lo / wordBits; w*wordBits < hi; w++ {
		word := b.words[w]
		if w == lo/wordBits {
			word &= ^uint64(0) << (uint(lo) % wordBits)
		}
		if rest := hi - w*wordBits; rest < wordBits {
			word &= rangeMask(0, uint(rest))
		}
		for ; word != 0; word &= word - 1 {
			if !fn(w*wordBits + bits.TrailingZeros64(word)) {
				return
			}
		}
	}
}

// Equal reports whether b and other contain exactly the same bits and have
// the same capacity.
func (b *Bitset) Equal(other *Bitset) bool {
	if b.n != other.n {
		return false
	}
	for i, w := range b.words {
		if other.words[i] != w {
			return false
		}
	}
	return true
}

// String renders small bitsets as a list of set indices for debugging.
func (b *Bitset) String() string {
	const maxShown = 32
	out := "{"
	shown := 0
	b.ForEach(func(i int) bool {
		if shown > 0 {
			out += " "
		}
		if shown == maxShown {
			out += "..."
			return false
		}
		out += fmt.Sprint(i)
		shown++
		return true
	})
	return out + "}"
}
