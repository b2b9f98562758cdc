package core_test

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
)

// unfilledTerm is what a term holds before an apply fills it: a NaN no
// division of a float64 by an out-degree yields.
var unfilledTerm = math.Float64frombits(0x7ff4_dead_beef_0001)

// specialMerged are merged values at the edges of float64: signed zeros,
// infinities, NaNs with and without payload, subnormals, the extremes.
var specialMerged = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0xfff8_0000_dead_beef), math.Float64frombits(0x7ff0_0000_0000_0001),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000f_ffff_ffff_ffff),
	math.MaxFloat64, -math.MaxFloat64, 0x1p-1022,
}

// applyCase is the state one apply phase starts from: old values, merged
// accumulators, out-degrees (one vertex in four has none) and the frontier
// bits already set.
type applyCase struct {
	degrees     []uint32
	old, merged []float64
	preset      []int
}

func drawApplyCase(rng *rand.Rand, n int) applyCase {
	c := applyCase{degrees: make([]uint32, n), old: make([]float64, n), merged: make([]float64, n)}
	for v := range n {
		switch rng.Intn(8) {
		case 0, 1:
		case 2:
			c.degrees[v] = math.MaxUint32 - uint32(rng.Intn(3))
		default:
			c.degrees[v] = 1 + uint32(rng.Intn(60))
		}
		c.old[v] = rng.Float64() / float64(n)
		switch rng.Intn(4) {
		case 0:
			c.merged[v] = specialMerged[rng.Intn(len(specialMerged))]
		case 1:
			c.merged[v] = math.Float64frombits(rng.Uint64())
		default:
			c.merged[v] = rng.Float64() * 8 / float64(n)
		}
		if rng.Intn(16) == 0 {
			c.preset = append(c.preset, v)
		}
	}
	return c
}

// applier is NewApplier over c with its preset frontier bits activated.
func (c applyCase) applier(t testing.TB, prog core.Program, p int) *core.Applier {
	t.Helper()
	a, err := core.NewApplier(prog, p, c.degrees, c.old, c.merged, unfilledTerm)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range c.preset {
		a.NewActive().Activate(v)
	}
	return a
}

// sameBits reports the first index at which got and want differ in a bit.
func sameBits(got, want []float64) (int, bool) {
	if len(got) != len(want) {
		return -1, false
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			return v, false
		}
	}
	return 0, true
}

// compareApplied fails t unless the affine applier a left exactly what the
// generic one left: values, accumulators and terms to the bit, frontier words
// and a count that matches the bits set.
func compareApplied(t testing.TB, what string, a, generic *core.Applier) {
	t.Helper()
	gotVals, gotAcc, gotTerms := a.State()
	wantVals, wantAcc, wantTerms := generic.State()
	for _, arr := range []struct {
		name      string
		got, want []float64
	}{{"value", gotVals, wantVals}, {"acc", gotAcc, wantAcc}, {"term", gotTerms, wantTerms}} {
		if v, ok := sameBits(arr.got, arr.want); !ok {
			t.Fatalf("%s: %s[%d] = %#x, generic loop left %#x", what, arr.name, v,
				math.Float64bits(arr.got[v]), math.Float64bits(arr.want[v]))
		}
	}
	got, want := a.NewActive(), generic.NewActive()
	if !slices.Equal(got.Words(), want.Words()) {
		t.Fatalf("%s: newActive words differ from the generic loop's", what)
	}
	if got.Count() != want.Count() || got.Count() != got.CountRange(0, got.Len()) {
		t.Fatalf("%s: newActive count %d, generic %d, bits set %d", what, got.Count(), want.Count(), got.CountRange(0, got.Len()))
	}
}

// affinePrograms are the built-ins that declare an affine apply.
func affinePrograms(t *testing.T) map[string]func() core.Program {
	t.Helper()
	all := kernelPrograms()
	all["widest"] = func() core.Program { return &algorithms.WidestPath{} }
	all["reach"] = func() core.Program { return &algorithms.Reachability{} }
	out := map[string]func() core.Program{}
	for name, mk := range all {
		a, err := core.NewApplier(mk(), 1, make([]uint32, 1), make([]float64, 1), make([]float64, 1), 0)
		if err != nil {
			t.Fatal(err)
		}
		if a.Affine() {
			out[name] = mk
		}
	}
	if out["pagerank"] == nil {
		t.Fatal("PageRank does not declare its affine apply")
	}
	return out
}

// TestApplyKernelMatchesGenericLoop is the differential test of applyAffine:
// for every built-in that declares an affine apply, interval by interval over
// 1 000 vertices at P = 3 — so every interval boundary falls inside a word of
// the frontier — the affine loop and the generic Apply loop, with fillTerms
// after it where the pass fills, leave the same bits in the values, the
// identity-reset accumulators and the terms, the same frontier words and the
// same count. Merged values include signed zeros, infinities, NaNs,
// subnormals and raw bit patterns, and a sixteenth of the frontier is set
// before the apply, so only newly set bits may count.
func TestApplyKernelMatchesGenericLoop(t *testing.T) {
	const n, p = 1000, 3
	for name, mk := range affinePrograms(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name)*13 + 7)))
			prog := mk()
			id := math.Float64bits(prog.Identity())
			for trial := range 40 {
				c := drawApplyCase(rng, n)
				a, generic := c.applier(t, prog, p), c.applier(t, hideApply(prog), p)
				if !a.Affine() || generic.Affine() {
					t.Fatal("hideApply did not hide the affine apply")
				}
				for j := range p {
					fill := (trial+j)%2 == 0
					a.Apply(j, fill)
					generic.Apply(j, fill)
					compareApplied(t, fmt.Sprintf("trial %d, interval %d, fill %t", trial, j, fill), a, generic)
				}
				if _, acc, _ := a.State(); slices.ContainsFunc(acc, func(x float64) bool { return math.Float64bits(x) != id }) {
					t.Fatalf("trial %d: an accumulator was not reset to the identity", trial)
				}
				if _, _, terms := a.State(); terms != nil && !slices.ContainsFunc(terms, func(x float64) bool { return math.Float64bits(x) != math.Float64bits(unfilledTerm) }) {
					t.Fatalf("trial %d: no term was filled", trial)
				}
			}
		})
	}
}

// FuzzApplyKernel feeds PageRank's affine loop and its generic Apply loop the
// same old and merged bit patterns, rotated vertex by vertex, over an engine
// of n vertices at P = 3, filling terms on every other interval: the two must
// leave the same bits (compareApplied).
func FuzzApplyKernel(f *testing.F) {
	for _, m := range specialMerged {
		f.Add(math.Float64bits(0.25), math.Float64bits(m), uint16(1000), uint32(3))
	}
	f.Add(uint64(0), uint64(0), uint16(1), uint32(0))
	f.Add(^uint64(0), uint64(0x8000_0000_0000_0001), uint16(64), uint32(math.MaxUint32))
	f.Fuzz(func(t *testing.T, oldBits, mergedBits uint64, size uint16, deg uint32) {
		n := 1 + int(size%4096)
		c := applyCase{degrees: make([]uint32, n), old: make([]float64, n), merged: make([]float64, n)}
		for v := range n {
			c.old[v] = math.Float64frombits(bits.RotateLeft64(oldBits, v))
			c.merged[v] = math.Float64frombits(bits.RotateLeft64(mergedBits, -v))
			c.degrees[v] = bits.RotateLeft32(deg, v) >> (v % 33)
			if v%7 == 3 {
				c.preset = append(c.preset, v)
			}
		}
		prog := &algorithms.PageRank{}
		a, generic := c.applier(t, prog, 3), c.applier(t, hideApply(prog), 3)
		for j := range 3 {
			a.Apply(j, j != 1)
			generic.Apply(j, j != 1)
		}
		compareApplied(t, "fuzz", a, generic)
	})
}
