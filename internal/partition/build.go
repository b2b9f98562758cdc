package partition

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/storage"
)

// buildTimer separates a preprocessor's in-memory CPU time (bucketing,
// sorting, encoding) from the time spent in device writes, so experiment
// reports can combine the CPU share with *simulated* write time instead of
// host filesystem wall time (which is dominated by per-file syscall
// overhead at laptop scale and by bandwidth at the paper's scale).
type buildTimer struct {
	start    time.Time
	devWalls time.Duration
}

func newBuildTimer() *buildTimer { return &buildTimer{start: time.Now()} }

// write performs dev.WriteFile while excluding its wall time from the CPU
// measurement.
func (t *buildTimer) write(dev *storage.Device, name string, data []byte) error {
	w0 := time.Now()
	err := dev.WriteFile(name, data)
	t.devWalls += time.Since(w0)
	return err
}

// cpu returns the wall time elapsed outside device writes.
func (t *buildTimer) cpu() time.Duration { return time.Since(t.start) - t.devWalls }

// BuildOption configures a preprocessor run.
type BuildOption func(*gridOptions)

// WithCodec selects the sub-block payload encoding: graph.CodecRaw
// (fixed-width records, the default) or graph.CodecDelta (per-source runs
// of zigzag-delta varint dst gaps with a separate weight column). Delta
// requires the src-sorted graphsd grid — the row-major preprocessors
// reject it.
func WithCodec(c graph.Codec) BuildOption {
	return func(o *gridOptions) { o.codec = c }
}

// Build runs GraphSD's preprocessing (paper §3.2): bucket the edges into a
// P×P grid by (source interval, destination interval), sort each sub-block
// by source vertex, write the sub-block payloads plus a per-vertex offset
// index for each, and persist per-vertex out-degrees for the I/O cost
// model. The raw-graph read and all writes are charged to the device, so
// the Figure 8 preprocessing comparison can be reproduced from device
// stats.
func Build(dev *storage.Device, g *graph.Graph, p int, opts ...BuildOption) (*Layout, error) {
	return buildGrid(dev, g, p, applyBuildOptions(gridOptions{system: "graphsd", sort: true, index: true}, opts))
}

// BuildLumos writes the Lumos-style layout: the same grid bucketing but
// with edges left in input order and no per-vertex indexes. Lumos streams
// whole blocks and never queries individual vertices, so it skips the sort
// — which is why it has the shortest preprocessing time in Figure 8.
func BuildLumos(dev *storage.Device, g *graph.Graph, p int, opts ...BuildOption) (*Layout, error) {
	return buildGrid(dev, g, p, applyBuildOptions(gridOptions{system: "lumos", sort: false, index: false}, opts))
}

func applyBuildOptions(o gridOptions, opts []BuildOption) gridOptions {
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// BuildHUSGraph writes the HUS-Graph-style layout: two complete copies of
// the edge set — row blocks grouped by source interval and sorted by source
// (with per-vertex indexes, for the on-demand path), and column blocks
// grouped by destination interval and sorted by destination (for the
// streaming path). Double copy + double sort is why HUS-Graph preprocessing
// is the slowest in Figure 8.
func BuildHUSGraph(dev *storage.Device, g *graph.Graph, p int, opts ...BuildOption) (*Layout, error) {
	if o := applyBuildOptions(gridOptions{}, opts); o.codec != graph.CodecRaw {
		return nil, fmt.Errorf("partition: codec %q requires the graphsd grid layout", o.codec)
	}
	if err := validateBuild(g, p); err != nil {
		return nil, err
	}
	chargeRawRead(dev, g)
	bt := newBuildTimer()

	m := newManifest("husgraph", g, p)
	m.RowSums = make([]uint32, p)
	m.ColSums = make([]uint32, p)

	// Copy 1: row blocks by source interval, sorted by source vertex.
	rows := bucketEdges(g, p, func(e graph.Edge) int { return m.IntervalOf(e.Src) })
	for i := 0; i < p; i++ {
		sortEdgesBySrc(rows[i])
		m.EdgeCounts[i][0] = int64(len(rows[i]))
		sum, err := writeEdges(dev, bt, RowName(i), rows[i], g.Weighted)
		if err != nil {
			return nil, err
		}
		m.RowSums[i] = sum
		lo, hi := m.Interval(i)
		idx := buildVertexIndex(rows[i], lo, hi, func(e graph.Edge) graph.VertexID { return e.Src })
		if err := writeIndex(dev, bt, rowIndexName(i), idx, nil); err != nil {
			return nil, err
		}
	}

	// Copy 2: column blocks by destination interval, sorted by destination.
	cols := bucketEdges(g, p, func(e graph.Edge) int { return m.IntervalOf(e.Dst) })
	for j := 0; j < p; j++ {
		slices.SortFunc(cols[j], func(a, b graph.Edge) int {
			return compareEdgeKeys(a.Dst, a.Src, a.Weight, b.Dst, b.Src, b.Weight)
		})
		sum, err := writeEdges(dev, bt, ColName(j), cols[j], g.Weighted)
		if err != nil {
			return nil, err
		}
		m.ColSums[j] = sum
	}

	if err := writeDegrees(dev, bt, g); err != nil {
		return nil, err
	}
	if err := saveManifest(dev, m); err != nil {
		return nil, err
	}
	return &Layout{Dev: dev, Meta: *m, PrepCPU: bt.cpu()}, nil
}

// rowIndexName returns the index file for HUS-Graph row block i.
func rowIndexName(i int) string { return fmt.Sprintf("rows/r_%04d.idx", i) }

// RowIndexName exposes rowIndexName for the baseline engines.
func RowIndexName(i int) string { return rowIndexName(i) }

type gridOptions struct {
	system string
	sort   bool
	index  bool
	codec  graph.Codec
}

func validateBuild(g *graph.Graph, p int) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if p <= 0 {
		return fmt.Errorf("partition: interval count must be positive, got %d", p)
	}
	if g.NumVertices == 0 && len(g.Edges) > 0 {
		return fmt.Errorf("partition: edges without vertices")
	}
	return nil
}

// chargeRawRead charges the sequential read of the raw input graph, the
// first step of the paper's preprocessing accounting.
func chargeRawRead(dev *storage.Device, g *graph.Graph) {
	dev.Charge(storage.SeqRead, g.Bytes())
}

func newManifest(system string, g *graph.Graph, p int) *Manifest {
	m := &Manifest{
		FormatVersion: FormatVersion,
		System:        system,
		NumVertices:   g.NumVertices,
		NumEdges:      int64(len(g.Edges)),
		P:             p,
		Weighted:      g.Weighted,
		EdgeCounts:    make([][]int64, p),
	}
	for i := range m.EdgeCounts {
		m.EdgeCounts[i] = make([]int64, p)
	}
	return m
}

func buildGrid(dev *storage.Device, g *graph.Graph, p int, opt gridOptions) (*Layout, error) {
	if err := validateBuild(g, p); err != nil {
		return nil, err
	}
	if opt.codec == graph.CodecDelta && !opt.sort {
		return nil, fmt.Errorf("partition: codec %q requires src-sorted sub-blocks", opt.codec)
	}
	chargeRawRead(dev, g)
	bt := newBuildTimer()

	m := newManifest(opt.system, g, p)
	m.Codec = opt.codec.String()
	m.BlockBytes = newGridInt64(p)
	m.BlockSums = newGridUint32(p)

	// Bucket edges into the P×P grid.
	grid := make([][]graph.Edge, p*p)
	for _, e := range g.Edges {
		i, j := m.IntervalOf(e.Src), m.IntervalOf(e.Dst)
		grid[i*p+j] = append(grid[i*p+j], e)
	}

	for i := 0; i < p; i++ {
		lo, hi := m.Interval(i)
		for j := 0; j < p; j++ {
			cell := grid[i*p+j]
			m.EdgeCounts[i][j] = int64(len(cell))
			if opt.sort {
				sortEdgesBySrc(cell)
			}
			if err := writeCell(dev, bt, m, opt, i, j, lo, hi, cell, g.Weighted); err != nil {
				return nil, err
			}
		}
	}

	if err := writeDegrees(dev, bt, g); err != nil {
		return nil, err
	}
	if err := saveManifest(dev, m); err != nil {
		return nil, err
	}
	return &Layout{Dev: dev, Meta: *m, PrepCPU: bt.cpu()}, nil
}

func bucketEdges(g *graph.Graph, p int, key func(graph.Edge) int) [][]graph.Edge {
	buckets := make([][]graph.Edge, p)
	for _, e := range g.Edges {
		k := key(e)
		buckets[k] = append(buckets[k], e)
	}
	return buckets
}

// sortEdgesBySrc sorts a cell by (source, destination, weight bits). The
// order is total, so what a layout's bytes are does not hang on how an
// unstable sort leaves parallel edges: Build, BuildExternal and a merge of the
// same edge set write the same files.
func sortEdgesBySrc(edges []graph.Edge) {
	slices.SortFunc(edges, func(a, b graph.Edge) int {
		return compareEdgeKeys(a.Src, a.Dst, a.Weight, b.Src, b.Dst, b.Weight)
	})
}

// compareEdgeKeys orders two edges by a major and a minor endpoint, then by
// the bits of their weights.
func compareEdgeKeys(aMajor, aMinor graph.VertexID, aWeight float32, bMajor, bMinor graph.VertexID, bWeight float32) int {
	if aMajor != bMajor {
		return cmp.Compare(aMajor, bMajor)
	}
	if aMinor != bMinor {
		return cmp.Compare(aMinor, bMinor)
	}
	return cmp.Compare(math.Float32bits(aWeight), math.Float32bits(bWeight))
}

// buildVertexIndex returns CSR-style offsets over a sorted edge slice: for
// each vertex v in [lo, hi), edges[idx[v-lo]:idx[v-lo+1]] are v's edges (as
// selected by key). len(idx) == hi-lo+1.
func buildVertexIndex(edges []graph.Edge, lo, hi int, key func(graph.Edge) graph.VertexID) []int64 {
	idx := make([]int64, hi-lo+1)
	for _, e := range edges {
		idx[int(key(e))-lo+1]++
	}
	for v := 0; v < hi-lo; v++ {
		idx[v+1] += idx[v]
	}
	return idx
}

// newGridInt64 allocates a zeroed P×P int64 grid.
func newGridInt64(p int) [][]int64 {
	g := make([][]int64, p)
	for i := range g {
		g[i] = make([]int64, p)
	}
	return g
}

// newGridUint32 allocates a zeroed P×P uint32 grid.
func newGridUint32(p int) [][]uint32 {
	g := make([][]uint32, p)
	for i := range g {
		g[i] = make([]uint32, p)
	}
	return g
}

// writeCell writes one grid cell's payload and per-vertex index in the
// manifest's codec, recording the on-disk payload size in BlockBytes.
func writeCell(dev *storage.Device, bt *buildTimer, m *Manifest, opt gridOptions, i, j, lo, hi int, cell []graph.Edge, weighted bool) error {
	var rec, off []int64
	if opt.index || opt.codec == graph.CodecDelta {
		rec = buildVertexIndex(cell, lo, hi, func(e graph.Edge) graph.VertexID { return e.Src })
	}
	if opt.codec == graph.CodecDelta {
		off = make([]int64, len(rec))
	}
	if len(cell) > 0 {
		var payload []byte
		if opt.codec == graph.CodecDelta {
			dstLo, _ := m.Interval(j)
			payload = encodeDeltaCell(cell, rec, lo, dstLo, weighted, off)
		} else {
			payload = encodeRawEdges(cell, weighted)
		}
		m.BlockBytes[i][j] = int64(len(payload))
		m.BlockSums[i][j] = Checksum(payload)
		if err := bt.write(dev, SubBlockName(i, j), payload); err != nil {
			return err
		}
	}
	if opt.index {
		if err := writeIndex(dev, bt, IndexName(i, j), rec, off); err != nil {
			return err
		}
	}
	return nil
}

// encodeDeltaCell encodes a src-sorted cell with the delta codec. rec is
// the cell's CSR record index; off (same length) is filled with the byte
// offset of each vertex's run, off[hi-lo] with the end of the varint
// section — which is where the weight column begins.
func encodeDeltaCell(cell []graph.Edge, rec []int64, lo, dstLo int, weighted bool, off []int64) []byte {
	payload := binary.AppendUvarint(nil, uint64(len(cell)))
	for v := 0; v < len(rec)-1; v++ {
		off[v] = int64(len(payload))
		if start, end := rec[v], rec[v+1]; end > start {
			payload = graph.EncodeDeltaRun(payload, cell[start:end], graph.VertexID(lo), graph.VertexID(dstLo))
		}
	}
	off[len(rec)-1] = int64(len(payload))
	if weighted {
		for _, e := range cell {
			payload = binary.LittleEndian.AppendUint32(payload, math.Float32bits(e.Weight))
		}
	}
	return payload
}

func encodeRawEdges(edges []graph.Edge, weighted bool) []byte {
	rec := graph.EdgeBytes
	if weighted {
		rec += graph.WeightBytes
	}
	buf := make([]byte, 0, len(edges)*rec)
	for _, e := range edges {
		buf = graph.EncodeEdge(buf, e, weighted)
	}
	return buf
}

// writeEdges writes a raw edge file and returns its payload checksum.
func writeEdges(dev *storage.Device, bt *buildTimer, name string, edges []graph.Edge, weighted bool) (uint32, error) {
	payload := encodeRawEdges(edges, weighted)
	return Checksum(payload), bt.write(dev, name, payload)
}

// writeIndex writes a per-vertex index in the v2 format: a uvarint entry
// count, then the record offsets as uvarint deltas (the sequence is
// monotone, so deltas are non-negative), then — for delta-codec blocks —
// the run byte offsets, delta-encoded the same way.
func writeIndex(dev *storage.Device, bt *buildTimer, name string, rec, off []int64) error {
	buf := binary.AppendUvarint(nil, uint64(len(rec)))
	buf = appendMonotoneDeltas(buf, rec)
	if off != nil {
		buf = appendMonotoneDeltas(buf, off)
	}
	return bt.write(dev, name, buf)
}

func appendMonotoneDeltas(buf []byte, vals []int64) []byte {
	prev := int64(0)
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, uint64(v-prev))
		prev = v
	}
	return buf
}

func writeDegrees(dev *storage.Device, bt *buildTimer, g *graph.Graph) error {
	deg := g.OutDegrees()
	buf := make([]byte, 0, len(deg)*4)
	for _, d := range deg {
		buf = binary.LittleEndian.AppendUint32(buf, d)
	}
	return bt.write(dev, DegreesName, buf)
}
