package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Edge record encoding. All binary formats are little-endian.
//
// Unweighted edge record (EdgeBytes = 8):
//
//	[0:4] src uint32
//	[4:8] dst uint32
//
// Weighted edge record (EdgeBytes + WeightBytes = 12):
//
//	[0:4]  src uint32
//	[4:8]  dst uint32
//	[8:12] weight float32

// streamBlockBytes is the block size of the binary interchange reader
// (BinaryStream): records are read and decoded a block at a time instead of
// one ReadFull call per 8/12-byte record.
const streamBlockBytes = 1 << 20

// readGrowth bounds ReadBinary's edge slice to this multiple of the edges
// actually read. At 8 the re-copies on the way up total a seventh of the
// final slice.
const readGrowth = 8

// EncodeEdge appends the binary encoding of e to buf and returns the
// extended slice. If weighted is false the weight column is omitted.
func EncodeEdge(buf []byte, e Edge, weighted bool) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Src))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Dst))
	if weighted {
		buf = binary.LittleEndian.AppendUint32(buf, floatBits(e.Weight))
	}
	return buf
}

// DecodeEdge decodes one edge record from buf. buf must hold at least
// EdgeBytes (+WeightBytes if weighted) bytes.
func DecodeEdge(buf []byte, weighted bool) Edge {
	e := Edge{
		Src: VertexID(binary.LittleEndian.Uint32(buf[0:4])),
		Dst: VertexID(binary.LittleEndian.Uint32(buf[4:8])),
	}
	if weighted {
		e.Weight = bitsToFloat(binary.LittleEndian.Uint32(buf[8:12]))
	}
	return e
}

// DecodeEdges decodes all edge records in buf into a slice. It returns an
// error if buf is not a whole number of records.
func DecodeEdges(buf []byte, weighted bool) ([]Edge, error) {
	return AppendEdges(nil, buf, weighted)
}

// AppendEdges decodes all edge records in buf, appending them to dst and
// returning the extended slice. dst is sized once from the record count:
// callers that hold an adequate dst decode without allocating, everyone else
// pays exactly one allocation of exactly that size.
func AppendEdges(dst []Edge, buf []byte, weighted bool) ([]Edge, error) {
	rec := EdgeBytes
	if weighted {
		rec += WeightBytes
	}
	if len(buf)%rec != 0 {
		return dst, fmt.Errorf("graph: %d bytes is not a multiple of record size %d", len(buf), rec)
	}
	n := len(buf) / rec
	dst = reserve(dst, n)
	out := dst[len(dst) : len(dst)+n]
	for i := range out {
		out[i] = DecodeEdge(buf[i*rec:], weighted)
	}
	return dst[:len(dst)+n], nil
}

// reserve returns dst with room for n more edges. Short of room, it moves dst
// to one allocation of exactly len(dst)+n — decoders know their output size
// up front, and append's amortised doubling would copy every edge once more
// and round the capacity up.
func reserve(dst []Edge, n int) []Edge {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]Edge, 0, len(dst)+n), dst...)
}

// WriteBinary writes the graph in the binary interchange format:
//
//	magic  "GSDG" (4 bytes)
//	flags  uint32 (bit 0: weighted, bit 1: delta-encoded edges)
//	numVertices uint64
//	numEdges    uint64
//	edge records
//
// Raw records are the fixed-width encoding above. With the delta flag set,
// each edge is instead zigzag-varint src and dst gaps from the previous edge
// (starting from vertex 0), followed inline by the float32 weight when
// weighted — a streaming-friendly variant of the sub-block delta codec for
// graphs that leave graphgen already sorted.
func WriteBinary(w io.Writer, g *Graph) error {
	return WriteBinaryCodec(w, g, CodecRaw)
}

// WriteBinaryCodec writes the interchange format with the given edge codec.
func WriteBinaryCodec(w io.Writer, g *Graph, codec Codec) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var flags uint32
	if g.Weighted {
		flags |= 1
	}
	if codec == CodecDelta {
		flags |= 2
	}
	hdr := make([]byte, 0, 24)
	hdr = append(hdr, 'G', 'S', 'D', 'G')
	hdr = binary.LittleEndian.AppendUint32(hdr, flags)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(g.NumVertices))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(g.Edges)))
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("graph: writing header: %w", err)
	}
	buf := make([]byte, 0, 24)
	var prevSrc, prevDst int64
	for _, e := range g.Edges {
		if codec == CodecDelta {
			s, d := int64(e.Src), int64(e.Dst)
			buf = binary.AppendVarint(buf[:0], s-prevSrc)
			buf = binary.AppendVarint(buf, d-prevDst)
			if g.Weighted {
				buf = binary.LittleEndian.AppendUint32(buf, floatBits(e.Weight))
			}
			prevSrc, prevDst = s, d
		} else {
			buf = EncodeEdge(buf[:0], e, g.Weighted)
		}
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("graph: writing edges: %w", err)
		}
	}
	return bw.Flush()
}

// ReadBinary reads a whole graph in the binary interchange format: it drains
// a BinaryStream. The header's edge count is a hint, not a fact — the edge
// slice grows towards it only as edges arrive, never past readGrowth times
// what the stream has delivered (plus one block to start from) — so a header
// that promises more than the file holds costs an error, not the promised
// allocation, while an honest file still ends in a slice of exactly its size.
func ReadBinary(r io.Reader) (*Graph, error) {
	s, err := NewBinaryStream(r)
	if err != nil {
		return nil, err
	}
	g := &Graph{NumVertices: s.NumVertices, Weighted: s.Weighted}
	for {
		e, ok, err := s.Next()
		if err != nil {
			return nil, fmt.Errorf("%w (edge %d of %d)", err, len(g.Edges), s.NumEdges)
		}
		if !ok {
			break
		}
		if len(g.Edges) == cap(g.Edges) {
			owed := s.NumEdges - uint64(len(g.Edges))
			g.Edges = reserve(g.Edges, int(min(owed, uint64((readGrowth-1)*len(g.Edges)+streamBlockBytes/EdgeBytes))))
		}
		g.Edges = append(g.Edges, e)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// ReadEdgeList parses a whitespace-separated text edge list, the common
// interchange format of SNAP and LAW datasets: one "src dst [weight]" pair
// per line, '#' or '%' comment lines ignored. Vertex IDs may be sparse; the
// vertex count is 1 + the maximum ID seen (or numVertices if larger).
func ReadEdgeList(r io.Reader, weighted bool) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	g := &Graph{Weighted: weighted}
	maxID := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineNo, line)
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %w", lineNo, fields[0], err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad destination %q: %w", lineNo, fields[1], err)
		}
		e := Edge{Src: VertexID(src), Dst: VertexID(dst)}
		if weighted {
			if len(fields) >= 3 {
				w, err := strconv.ParseFloat(fields[2], 32)
				if err != nil {
					return nil, fmt.Errorf("graph: line %d: bad weight %q: %w", lineNo, fields[2], err)
				}
				e.Weight = float32(w)
			} else {
				e.Weight = 1
			}
		}
		if int(src) > maxID {
			maxID = int(src)
		}
		if int(dst) > maxID {
			maxID = int(dst)
		}
		g.Edges = append(g.Edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scanning edge list: %w", err)
	}
	g.NumVertices = maxID + 1
	return g, nil
}

// WriteEdgeList writes the graph as a text edge list.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "# vertices=%d edges=%d weighted=%t\n", g.NumVertices, len(g.Edges), g.Weighted)
	for _, e := range g.Edges {
		var err error
		if g.Weighted {
			_, err = fmt.Fprintf(bw, "%d %d %g\n", e.Src, e.Dst, e.Weight)
		} else {
			_, err = fmt.Fprintf(bw, "%d %d\n", e.Src, e.Dst)
		}
		if err != nil {
			return fmt.Errorf("graph: writing edge list: %w", err)
		}
	}
	return bw.Flush()
}

func floatBits(f float32) uint32   { return math.Float32bits(f) }
func bitsToFloat(b uint32) float32 { return math.Float32frombits(b) }
