package core

import (
	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/graph"
)

// Scatterer drives Engine.scatter over caller-built arrays, with no layout
// behind it, for the kernel tests and BenchmarkScatterKernel.
type Scatterer struct{ e *Engine }

// NewScatterer prepares prog's declared scatter loop at the given thread
// count. Close stops the helper goroutines a parallel scatter started.
func NewScatterer(prog Program, threads int, degrees []uint32) (*Scatterer, error) {
	k, err := kernelOf(prog)
	if err != nil {
		return nil, err
	}
	return &Scatterer{&Engine{prog: prog, kernel: k, threads: threads, degrees: degrees}}, nil
}

func (s *Scatterer) Kernel() EdgeKernel { return s.e.kernel }

func (s *Scatterer) Scatter(edges []graph.Edge, vals []float64, filter *bitset.ActiveSet, acc []float64, touched *bitset.ActiveSet, dstLo, dstHi int) {
	s.e.scatter(edges, vals, filter, acc, touched, dstLo, dstHi)
}

func (s *Scatterer) Close() { s.e.stopParallel() }

// The batch sizes from which a scatter and an apply fan out.
const (
	SerialScatterThreshold = serialScatterThreshold
	SerialApplyThreshold   = serialApplyThreshold
)
