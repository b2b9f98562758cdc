package graph

import "math"

// EdgeSorter orders edge slices by the total order layout cells are stored
// in: BySrc by (source, destination, weight bits), ByDst — HUS-Graph's column
// copy — by (destination, source, weight bits). The order is total, so what a
// sorted slice holds never depends on the order its edges came in.
//
// It is an LSD radix sort: stable counting passes over 16-bit digits, least
// significant key first. Digits are taken relative to the smallest key
// present, so a layout cell's keys are offsets into its intervals, and a pass
// whose digit is the same for every edge is skipped: an unweighted cell whose
// intervals are at most 65 536 vertices wide costs one pass per endpoint.
//
// The zero value is ready to use. A sorter keeps its scratch memory between
// calls — one edge slice as long as the longest input and one counter array
// of 65 536 entries — so a builder sorting cell after cell allocates it once.
type EdgeSorter struct {
	tmp    []Edge
	counts *[1 << 16]int
}

// sortKey names the edge field a pass takes its digit from.
type sortKey int

const (
	keySrc sortKey = iota
	keyDst
	keyWeight
)

// BySrc sorts edges in place by (source, destination, weight bits).
func (s *EdgeSorter) BySrc(edges []Edge) { s.sort(edges, keySrc, keyDst) }

// ByDst sorts edges in place by (destination, source, weight bits).
func (s *EdgeSorter) ByDst(edges []Edge) { s.sort(edges, keyDst, keySrc) }

func (s *EdgeSorter) sort(edges []Edge, major, minor sortKey) {
	if len(edges) < 2 {
		return
	}
	lo := [3]uint32{math.MaxUint32, math.MaxUint32, math.MaxUint32}
	var hi [3]uint32
	for _, e := range edges {
		src, dst, w := uint32(e.Src), uint32(e.Dst), math.Float32bits(e.Weight)
		lo[keySrc], hi[keySrc] = min(lo[keySrc], src), max(hi[keySrc], src)
		lo[keyDst], hi[keyDst] = min(lo[keyDst], dst), max(hi[keyDst], dst)
		lo[keyWeight], hi[keyWeight] = min(lo[keyWeight], w), max(hi[keyWeight], w)
	}
	if cap(s.tmp) < len(edges) {
		s.tmp = make([]Edge, len(edges))
	}
	from, to := edges, s.tmp[:len(edges)]
	for _, k := range [3]sortKey{keyWeight, minor, major} {
		span := hi[k] - lo[k]
		for shift := uint(0); shift < 32 && span>>shift != 0; shift += 16 {
			if s.pass(to, from, k, lo[k], shift, min(span>>shift, 0xffff)) {
				from, to = to, from
			}
		}
	}
	if &from[0] != &edges[0] {
		copy(edges, from)
	}
}

// pass moves from into to, stably ordered by each edge's digit
// (key−base)>>shift&0xffff, which is at most top. It moves nothing and
// reports false when every edge has the same digit.
func (s *EdgeSorter) pass(to, from []Edge, k sortKey, base uint32, shift uint, top uint32) bool {
	if s.counts == nil {
		s.counts = new([1 << 16]int)
	}
	c := s.counts
	clear(c[:top+1])
	switch k {
	case keySrc:
		for _, e := range from {
			c[uint16((uint32(e.Src)-base)>>shift)]++
		}
	case keyDst:
		for _, e := range from {
			c[uint16((uint32(e.Dst)-base)>>shift)]++
		}
	default:
		for _, e := range from {
			c[uint16((math.Float32bits(e.Weight)-base)>>shift)]++
		}
	}
	sum := 0
	for d, n := range c[:top+1] {
		if n == len(from) {
			return false
		}
		c[d] = sum
		sum += n
	}
	switch k {
	case keySrc:
		for _, e := range from {
			d := uint16((uint32(e.Src) - base) >> shift)
			to[c[d]] = e
			c[d]++
		}
	case keyDst:
		for _, e := range from {
			d := uint16((uint32(e.Dst) - base) >> shift)
			to[c[d]] = e
			c[d]++
		}
	default:
		for _, e := range from {
			d := uint16((math.Float32bits(e.Weight) - base) >> shift)
			to[c[d]] = e
			c[d]++
		}
	}
	return true
}
