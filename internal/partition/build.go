package partition

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/storage"
)

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

type gridOptions struct {
	system   string
	rowMajor bool // HUS-Graph's row and column files, not a grid of cells
	sort     bool
	index    bool
	codec    graph.Codec
}

func applyBuildOptions(o gridOptions, opts []BuildOption) gridOptions {
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// graphsdGrid is what Build and BuildExternal write: src-sorted, indexed cells.
var graphsdGrid = gridOptions{system: "graphsd", sort: true, index: true}

// Build runs GraphSD's preprocessing (paper §3.2): bucket the edges into a
// P×P grid by (source interval, destination interval), sort each sub-block
// by source vertex, write the sub-block payloads plus a per-vertex offset
// index for each, and persist per-vertex out-degrees for the I/O cost
// model. The raw-graph read and all writes are charged to the device, so
// the Figure 8 preprocessing comparison can be reproduced from device
// stats.
func Build(dev *storage.Device, g *graph.Graph, p int, opts ...BuildOption) (*Layout, error) {
	return buildGrid(dev, g, p, applyBuildOptions(graphsdGrid, opts))
}

// BuildLumos writes the Lumos-style layout: the same grid bucketing but
// with edges left in input order and no per-vertex indexes. Lumos streams
// whole blocks and never queries individual vertices, so it skips the sort
// — which is why it has the shortest preprocessing time in Figure 8.
func BuildLumos(dev *storage.Device, g *graph.Graph, p int, opts ...BuildOption) (*Layout, error) {
	return buildGrid(dev, g, p, applyBuildOptions(gridOptions{system: "lumos"}, opts))
}

// BuildHUSGraph writes the HUS-Graph-style layout: two complete copies of
// the edge set — row blocks grouped by source interval and sorted by source
// (with per-vertex indexes, for the on-demand path), and column blocks
// grouped by destination interval and sorted by destination (for the
// streaming path). Double copy + double sort is why HUS-Graph preprocessing
// is the slowest in Figure 8.
func BuildHUSGraph(dev *storage.Device, g *graph.Graph, p int, opts ...BuildOption) (*Layout, error) {
	opt := applyBuildOptions(gridOptions{system: "husgraph", rowMajor: true}, opts)
	if opt.codec != graph.CodecRaw {
		return nil, fmt.Errorf("partition: codec %q requires the graphsd grid layout", opt.codec)
	}
	w, err := newGraphWriter(dev, opt, g, p)
	if err != nil {
		return nil, err
	}
	m := w.m

	// Copy 1: row blocks by source interval, sorted by source vertex.
	bySrc, byDst := intervalKeys(m)
	rows := bucketEdges(g.Edges, p, bySrc)
	for i := 0; i < p; i++ {
		w.sorter.BySrc(rows[i])
		m.EdgeCounts[i][0] = int64(len(rows[i]))
		if err := w.write(RowName(i), encodeRawEdges(rows[i], m.Weighted)); err != nil {
			return nil, err
		}
		lo, hi := m.Interval(i)
		if err := w.write(RowIndexName(i), encodeIndex(buildVertexIndex(rows[i], lo, hi), nil)); err != nil {
			return nil, err
		}
	}

	// Copy 2: column blocks by destination interval, sorted by destination.
	cols := bucketEdges(g.Edges, p, byDst)
	for j := 0; j < p; j++ {
		w.sorter.ByDst(cols[j])
		payload := encodeRawEdges(cols[j], m.Weighted)
		m.ColSums[j] = Checksum(payload)
		if err := w.write(ColName(j), payload); err != nil {
			return nil, err
		}
	}
	return w.finish(g.OutDegrees())
}

// RowIndexName returns the index file for HUS-Graph row block i.
func RowIndexName(i int) string { return fmt.Sprintf("rows/r_%04d.idx", i) }

func buildGrid(dev *storage.Device, g *graph.Graph, p int, opt gridOptions) (*Layout, error) {
	w, err := newGraphWriter(dev, opt, g, p)
	if err != nil {
		return nil, err
	}
	// One pass over the edges buckets them into the P×P grid.
	bySrc, byDst := intervalKeys(w.m)
	grid := bucketEdges(g.Edges, p*p, func(e graph.Edge) int { return bySrc(e)*p + byDst(e) })
	for i := 0; i < p; i++ {
		if err := w.writeRow(i, grid[i*p:(i+1)*p]); err != nil {
			return nil, err
		}
	}
	return w.finish(g.OutDegrees())
}

// bucketEdges groups edges into n buckets by key, each in input order. A
// counting pass takes every edge's key once and sizes every bucket, so all of
// them share one backing array allocated once.
func bucketEdges(edges []graph.Edge, n int, key func(graph.Edge) int) [][]graph.Edge {
	keys := make([]int32, len(edges))
	next := make([]int, n)
	for x, e := range edges {
		k := key(e)
		keys[x] = int32(k)
		next[k]++
	}
	all := make([]graph.Edge, len(edges))
	buckets := make([][]graph.Edge, n)
	off := 0
	for k, size := range next {
		buckets[k] = all[off : off+size : off+size]
		next[k] = off
		off += size
	}
	for x, e := range edges {
		k := keys[x]
		all[next[k]] = e
		next[k]++
	}
	return buckets
}

// intervalKeys returns the key functions that bucket edges by the interval of
// their source and of their destination.
func intervalKeys(m *Manifest) (bySrc, byDst func(graph.Edge) int) {
	per := uint32(m.intervalWidth())
	return func(e graph.Edge) int { return int(uint32(e.Src) / per) },
		func(e graph.Edge) int { return int(uint32(e.Dst) / per) }
}

// buildVertexIndex returns CSR-style offsets over a src-sorted edge slice: for
// each vertex v in [lo, hi), edges[idx[v-lo]:idx[v-lo+1]] are v's out-edges.
// len(idx) == hi-lo+1.
func buildVertexIndex(edges []graph.Edge, lo, hi int) []int64 {
	idx := make([]int64, hi-lo+1)
	for _, e := range edges {
		idx[int(e.Src)-lo+1]++
	}
	for v := 0; v < hi-lo; v++ {
		idx[v+1] += idx[v]
	}
	return idx
}

// newGrid allocates a zeroed P×P grid.
func newGrid[T any](p int) [][]T {
	g := make([][]T, p)
	for i := range g {
		g[i] = make([]T, p)
	}
	return g
}

// layoutWriter is the one route from edges in memory to a layout's files and
// the manifest entries that describe them, at one generation: the in-memory
// builds and BuildExternal write generation 0 through it, compaction
// (RewriteBlock, WriteDegreesAt) a later one into a manifest it already has. It
// also keeps a preprocessor's in-memory CPU time (bucketing, sorting,
// encoding) apart from the time spent in device writes, so experiment reports
// can combine the CPU share with *simulated* write time instead of host
// filesystem wall time (which is dominated by per-file syscall overhead at
// laptop scale and by bandwidth at the paper's scale).
type layoutWriter struct {
	dev         *storage.Device
	m           *Manifest
	gen         int
	sort, index bool
	sorter      graph.EdgeSorter // orders every cell the writer sorts
	start       time.Time
	devWalls    time.Duration
}

// newLayoutWriter starts a generation-0 layout of numVertices vertices in p
// intervals. Grid systems record per-cell sizes and sums, a row-major one a sum
// per row and column file.
func newLayoutWriter(dev *storage.Device, opt gridOptions, numVertices int, weighted bool, p int) (*layoutWriter, error) {
	if p <= 0 {
		return nil, fmt.Errorf("partition: interval count must be positive, got %d", p)
	}
	if numVertices < 0 {
		return nil, fmt.Errorf("partition: negative vertex count %d", numVertices)
	}
	if opt.codec == graph.CodecDelta && !opt.sort {
		return nil, fmt.Errorf("partition: codec %q requires src-sorted sub-blocks", opt.codec)
	}
	m := &Manifest{
		FormatVersion: FormatVersion,
		System:        opt.system,
		NumVertices:   numVertices,
		P:             p,
		Weighted:      weighted,
		EdgeCounts:    newGrid[int64](p),
	}
	if opt.rowMajor {
		m.ColSums = make([]uint32, p)
	} else {
		m.Codec = opt.codec.String()
		m.BlockBytes = newGrid[int64](p)
		m.BlockSums = newGrid[uint32](p)
	}
	return &layoutWriter{dev: dev, m: m, sort: opt.sort, index: opt.index, start: time.Now()}, nil
}

// newGraphWriter is newLayoutWriter for a graph held in memory: it validates
// the graph and charges the sequential read of the raw input, the first step
// of the paper's preprocessing accounting, before the CPU clock starts.
func newGraphWriter(dev *storage.Device, opt gridOptions, g *graph.Graph, p int) (*layoutWriter, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	dev.Charge(storage.SeqRead, g.Bytes())
	w, err := newLayoutWriter(dev, opt, g.NumVertices, g.Weighted, p)
	if err == nil {
		w.m.NumEdges = int64(len(g.Edges))
	}
	return w, err
}

// write performs dev.WriteFile while excluding its wall time from the CPU
// measurement.
func (w *layoutWriter) write(name string, data []byte) error {
	w0 := time.Now()
	err := w.dev.WriteFile(name, data)
	w.devWalls += time.Since(w0)
	if err != nil {
		return fmt.Errorf("partition: writing %s: %w", name, err)
	}
	return nil
}

// writeRow sorts (for a sorted grid) and writes row i's cells, one per
// destination interval.
func (w *layoutWriter) writeRow(i int, cells [][]graph.Edge) error {
	for j, cell := range cells {
		if w.sort {
			w.sorter.BySrc(cell)
		}
		if err := w.writeCell(i, j, cell); err != nil {
			return err
		}
	}
	return nil
}

// writeCell writes sub-block (i, j) at the writer's generation: the payload in
// the manifest's codec — no file for an empty cell — then the per-vertex index
// of an indexed grid, and the manifest's EdgeCounts, BlockBytes, BlockSums and
// (past generation 0) BlockGens entries. cell must be src-sorted wherever an
// index or the delta codec is asked for.
func (w *layoutWriter) writeCell(i, j int, cell []graph.Edge) error {
	m := w.m
	delta := m.BlockCodec() == graph.CodecDelta
	var rec, off []int64
	lo, hi := m.Interval(i)
	if w.index || delta {
		rec = buildVertexIndex(cell, lo, hi)
	}
	if delta {
		off = make([]int64, len(rec))
	}
	var payload []byte
	if len(cell) > 0 {
		if delta {
			dstLo, _ := m.Interval(j)
			payload = encodeDeltaCell(cell, rec, lo, dstLo, m.Weighted, off)
		} else {
			payload = encodeRawEdges(cell, m.Weighted)
		}
		if err := w.write(SubBlockNameAt(w.gen, i, j), payload); err != nil {
			return err
		}
	}
	if w.index {
		if err := w.write(IndexNameAt(w.gen, i, j), encodeIndex(rec, off)); err != nil {
			return err
		}
	}
	m.EdgeCounts[i][j] = int64(len(cell))
	m.BlockBytes[i][j] = int64(len(payload))
	m.BlockSums[i][j] = Checksum(payload)
	if w.gen > 0 {
		if m.BlockGens == nil {
			m.BlockGens = newGrid[int](m.P)
		}
		m.BlockGens[i][j] = w.gen
	}
	return nil
}

// writeDegrees writes deg as the out-degree table of the writer's generation
// and records its name and CRC32C in the manifest.
func (w *layoutWriter) writeDegrees(deg []uint32) error {
	buf := make([]byte, 0, len(deg)*4)
	for _, d := range deg {
		buf = binary.LittleEndian.AppendUint32(buf, d)
	}
	sum := Checksum(buf)
	w.m.DegreesGen, w.m.DegreesSum = w.gen, &sum
	return w.write(DegreesNameAt(w.gen), buf)
}

// finish writes the degree table, publishes the manifest and returns the layout.
func (w *layoutWriter) finish(deg []uint32) (*Layout, error) {
	if err := w.writeDegrees(deg); err != nil {
		return nil, err
	}
	if err := SaveManifest(w.dev, w.m); err != nil {
		return nil, err
	}
	return &Layout{Dev: w.dev, Meta: *w.m, PrepCPU: time.Since(w.start) - w.devWalls}, nil
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

// encodeIndex returns a per-vertex index in the v2 format: a uvarint entry
// count, then the record offsets as uvarint deltas (the sequence is
// monotone, so deltas are non-negative), then — for delta-codec blocks —
// the run byte offsets, delta-encoded the same way.
func encodeIndex(rec, off []int64) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(rec)))
	buf = appendMonotoneDeltas(buf, rec)
	if off != nil {
		buf = appendMonotoneDeltas(buf, off)
	}
	return buf
}

func appendMonotoneDeltas(buf []byte, vals []int64) []byte {
	prev := int64(0)
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, uint64(v-prev))
		prev = v
	}
	return buf
}
