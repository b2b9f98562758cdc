package partition

import (
	"fmt"

	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/storage"
)

// BuildExternal runs GraphSD's preprocessing with bounded memory, the way
// a production out-of-core system must when the input graph itself exceeds
// DRAM. Where Build materializes the whole grid in memory, BuildExternal
// makes two passes:
//
//  1. Scan: stream the input edges once, spilling each edge to its source
//     interval's run file on the device. Memory: P write buffers plus the
//     degree table (vertex-proportional state is memory-resident
//     throughout the system, as in the paper).
//  2. Per row: read back one row's run (which fits the memory budget —
//     that is precisely how P is chosen, cf. ChooseP), bucket it into its
//     P cells, and hand them to the row step Build runs: sort each by
//     source, write the sub-block payload and vertex index.
//
// The result is byte-identical to Build's layout; tests assert that. The
// spill traffic (one extra sequential write + read of the edge data) is
// charged to the device like every other preprocessing I/O.
func BuildExternal(dev *storage.Device, src graph.EdgeStream, numVertices int, weighted bool, p int, opts ...BuildOption) (*Layout, error) {
	w, err := newLayoutWriter(dev, applyBuildOptions(graphsdGrid, opts), numVertices, weighted, p)
	if err != nil {
		return nil, err
	}
	m := w.m

	// Pass 1: spill edges into per-source-interval run files.
	spills := make([]*storage.Writer, p)
	for i := range spills {
		if spills[i], err = dev.Create(spillName(i)); err != nil {
			return nil, err
		}
	}
	degrees := make([]uint32, numVertices)
	encBuf := make([]byte, 0, m.EdgeRecordBytes())
	for {
		e, ok, err := src.Next()
		if err != nil {
			return nil, fmt.Errorf("partition: reading edge stream: %w", err)
		}
		if !ok {
			break
		}
		if int(e.Src) >= numVertices || int(e.Dst) >= numVertices {
			return nil, fmt.Errorf("partition: edge %d->%d out of range [0,%d)", e.Src, e.Dst, numVertices)
		}
		degrees[e.Src]++
		m.NumEdges++
		encBuf = graph.EncodeEdge(encBuf[:0], e, weighted)
		if _, err := spills[m.IntervalOf(e.Src)].Write(encBuf); err != nil {
			return nil, err
		}
	}
	for _, s := range spills {
		if err := s.Close(); err != nil {
			return nil, err
		}
	}

	// Pass 2: per row, read the run back, bucket into cells, sort, write.
	_, byDst := intervalKeys(m)
	for i := 0; i < p; i++ {
		data, err := dev.ReadFile(spillName(i))
		if err != nil {
			return nil, err
		}
		edges, err := graph.DecodeEdges(data, weighted)
		if err != nil {
			return nil, fmt.Errorf("partition: decoding spill run %d: %w", i, err)
		}
		if err := w.writeRow(i, bucketEdges(edges, p, byDst)); err != nil {
			return nil, err
		}
		if err := dev.Remove(spillName(i)); err != nil {
			return nil, err
		}
	}
	return w.finish(degrees)
}

func spillName(i int) string { return fmt.Sprintf("spill/run_%04d.tmp", i) }
