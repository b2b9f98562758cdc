package core

import (
	"fmt"

	"github.com/graphsd/graphsd/internal/graph"
)

// EdgeKernel names an edge algebra — a Gather and the Merge that folds it —
// for which the engine has a hand-specialised scatter loop. A Program
// declares one through the optional method
//
//	EdgeKernel() core.EdgeKernel
//
// and by doing so promises that its Gather and Merge compute exactly what the
// constant's comment says; the engine then never calls them on the scatter
// path. A program without the method runs the generic loop, which calls
// Gather and Merge through the interface for every edge.
type EdgeKernel uint8

const (
	// KernelGeneric is the zero value: no specialised loop.
	KernelGeneric EdgeKernel = iota
	// KernelSumOverOutDegree: Gather is srcVal/outdeg(src), or 0 for a source
	// of out-degree zero; Merge is a+b (PageRank, PageRank-Delta). The engine
	// takes Gather once per source (fillTerms), the loop adds it per edge.
	KernelSumOverOutDegree
	// KernelMinCopy: Gather is srcVal; Merge is the built-in min (label
	// propagation).
	KernelMinCopy
	// KernelMinPlusOne: Gather is srcVal+1; Merge is the built-in min (BFS).
	KernelMinPlusOne
	// KernelMinPlusWeight: Gather is srcVal+float64(e.Weight); Merge is the
	// built-in min (SSSP).
	KernelMinPlusWeight
	numEdgeKernels
)

// kernelOf returns the kernel prog declares, KernelGeneric when it declares
// none.
func kernelOf(prog Program) (EdgeKernel, error) {
	d, ok := prog.(interface{ EdgeKernel() EdgeKernel })
	if !ok {
		return KernelGeneric, nil
	}
	k := d.EdgeKernel()
	if k >= numEdgeKernels {
		return 0, fmt.Errorf("core: program %s declares unknown edge kernel %d", prog.Name(), k)
	}
	return k, nil
}

// scatterArgs is what every scatter loop reads and writes. filter and touched
// are the raw words of the source filter and the touched set; destination d
// lands in acc[d] and bit d of touched. The sum loop reads terms, not vals.
// full: the filter holds the whole source row, so the sum loop skips its
// filter test. untracked: full, and the pass applies every vertex of the
// destination interval (Engine.applyEvery), so the sum loop sets no touched
// bit either; Engine.scatter marks the interval instead.
type scatterArgs struct {
	vals, terms     []float64
	degrees         []uint32
	filter          []uint64
	full, untracked bool
	acc             []float64
	touched         []uint64
}

// hasBit reports whether bit i of words is set.
func hasBit(words []uint64, i uint32) bool {
	return words[i>>6]&(1<<(i&63)) != 0
}

// setBit sets bit i of words and returns 1 if it was clear, else 0.
func setBit(words []uint64, i int) int {
	w, m := uint(i)>>6, uint64(1)<<(uint(i)&63)
	old := words[w]
	words[w] = old | m
	if old&m != 0 {
		return 0
	}
	return 1
}

// markBit sets bit i of words.
func markBit(words []uint64, i int) {
	words[uint(i)>>6] |= 1 << (uint(i) & 63)
}

// runKernel scatters the edges whose source is in the filter. Every
// specialised loop performs the floating-point operations of
// Merge(acc, Gather(val, e, deg)) for its algebra, in edge order, so its
// results are bit-identical to the generic loop's (the sum loop's divisions
// ran in fillTerms). No loop counts the touched bits it sets: a running count
// is one live value too many for the register allocator, which then keeps it
// in memory and chains every edge to the last through a store and a load
// (15–25% of the loop, measured). The caller takes the difference of two
// population counts instead. On an untracked call the sum loop is the add
// alone — the touched bit per edge was 14% of its time on pr_fit — and writes
// no touched word; the caller marks the destination interval.
func runKernel(k EdgeKernel, prog Program, edges []graph.Edge, a scatterArgs) {
	switch k {
	case KernelSumOverOutDegree:
		scatterSumOverOutDegree(edges, a)
	case KernelMinCopy:
		scatterMinCopy(edges, a)
	case KernelMinPlusOne:
		scatterMinPlusOne(edges, a)
	case KernelMinPlusWeight:
		scatterMinPlusWeight(edges, a)
	default:
		scatterGeneric(prog, edges, a)
	}
}

func scatterGeneric(prog Program, edges []graph.Edge, a scatterArgs) {
	for _, ed := range edges {
		if !hasBit(a.filter, uint32(ed.Src)) {
			continue
		}
		g := prog.Gather(a.vals[ed.Src], ed, a.degrees[ed.Src])
		d := int(ed.Dst)
		a.acc[d] = prog.Merge(a.acc[d], g)
		markBit(a.touched, d)
	}
}

func scatterSumOverOutDegree(edges []graph.Edge, a scatterArgs) {
	terms, filter, acc, touched := a.terms, a.filter, a.acc, a.touched
	if a.untracked {
		for _, ed := range edges {
			acc[ed.Dst] += terms[ed.Src]
		}
		return
	}
	if a.full {
		for _, ed := range edges {
			d := int(ed.Dst)
			acc[d] += terms[ed.Src]
			markBit(touched, d)
		}
		return
	}
	for _, ed := range edges {
		if !hasBit(filter, uint32(ed.Src)) {
			continue
		}
		d := int(ed.Dst)
		acc[d] += terms[ed.Src]
		markBit(touched, d)
	}
}

// The three min kernels, and the programs that declare them, merge with the
// built-in min, which the compiler expands in place; math.Min is an assembly
// routine on amd64 and arm64. The two are not interchangeable: they agree on
// every pair of floats except -Inf with NaN, where math.Min gives -Inf and
// min gives NaN — a pair an SSSP over non-finite input weights can produce.

func scatterMinCopy(edges []graph.Edge, a scatterArgs) {
	vals, filter, acc, touched := a.vals, a.filter, a.acc, a.touched
	for _, ed := range edges {
		if !hasBit(filter, uint32(ed.Src)) {
			continue
		}
		d := int(ed.Dst)
		acc[d] = min(acc[d], vals[ed.Src])
		markBit(touched, d)
	}
}

func scatterMinPlusOne(edges []graph.Edge, a scatterArgs) {
	vals, filter, acc, touched := a.vals, a.filter, a.acc, a.touched
	for _, ed := range edges {
		if !hasBit(filter, uint32(ed.Src)) {
			continue
		}
		d := int(ed.Dst)
		acc[d] = min(acc[d], vals[ed.Src]+1)
		markBit(touched, d)
	}
}

func scatterMinPlusWeight(edges []graph.Edge, a scatterArgs) {
	vals, filter, acc, touched := a.vals, a.filter, a.acc, a.touched
	for _, ed := range edges {
		if !hasBit(filter, uint32(ed.Src)) {
			continue
		}
		d := int(ed.Dst)
		acc[d] = min(acc[d], vals[ed.Src]+float64(ed.Weight))
		markBit(touched, d)
	}
}
