package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// EdgeStream yields edges one at a time, allowing preprocessors to consume
// graphs far larger than memory. Implementations are not safe for
// concurrent use.
type EdgeStream interface {
	// Next returns the next edge. ok is false at end of stream.
	Next() (e Edge, ok bool, err error)
}

// SliceStream adapts an in-memory edge slice to EdgeStream.
type SliceStream struct {
	edges []Edge
	pos   int
}

// NewSliceStream returns a stream over edges.
func NewSliceStream(edges []Edge) *SliceStream { return &SliceStream{edges: edges} }

// Next implements EdgeStream.
func (s *SliceStream) Next() (Edge, bool, error) {
	if s.pos >= len(s.edges) {
		return Edge{}, false, nil
	}
	e := s.edges[s.pos]
	s.pos++
	return e, true, nil
}

// Reset rewinds the stream to the beginning.
func (s *SliceStream) Reset() { s.pos = 0 }

// BinaryStream reads the GSDG binary interchange format incrementally,
// never holding more than one buffered block in memory. Records are pulled
// from the reader a block at a time and decoded from the block buffer, so
// the per-record cost is a slice index, not an io.ReadFull call.
type BinaryStream struct {
	br        *bufio.Reader
	remaining uint64
	rec       int
	buf       []byte // current block, whole records
	pos       int    // next undecoded record offset in buf

	// delta-flagged streams decode varint gaps straight off the reader.
	delta            bool
	prevSrc, prevDst int64
	wbuf             []byte

	// NumVertices and Weighted are read from the header.
	NumVertices int
	Weighted    bool
	NumEdges    uint64
}

// NewBinaryStream validates the header of a GSDG binary graph and returns
// a stream over its edge records.
func NewBinaryStream(r io.Reader) (*BinaryStream, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	if string(hdr[0:4]) != "GSDG" {
		return nil, fmt.Errorf("graph: bad magic %q", hdr[0:4])
	}
	flags := binary.LittleEndian.Uint32(hdr[4:8])
	numV := binary.LittleEndian.Uint64(hdr[8:16])
	numE := binary.LittleEndian.Uint64(hdr[16:24])
	const maxReasonable = 1 << 40
	if numV > maxReasonable || numE > maxReasonable || uint64(int(numV)) != numV {
		return nil, fmt.Errorf("graph: implausible header counts v=%d e=%d", numV, numE)
	}
	weighted := flags&1 != 0
	rec := EdgeBytes
	if weighted {
		rec += WeightBytes
	}
	return &BinaryStream{
		br:          br,
		remaining:   numE,
		rec:         rec,
		delta:       flags&2 != 0,
		wbuf:        make([]byte, WeightBytes),
		NumVertices: int(numV),
		Weighted:    weighted,
		NumEdges:    numE,
	}, nil
}

// Next implements EdgeStream.
func (s *BinaryStream) Next() (Edge, bool, error) {
	if s.delta {
		return s.nextDelta()
	}
	if s.pos >= len(s.buf) {
		if s.remaining == 0 {
			return Edge{}, false, nil
		}
		if err := s.fill(); err != nil {
			return Edge{}, false, err
		}
	}
	e := DecodeEdge(s.buf[s.pos:], s.Weighted)
	s.pos += s.rec
	return e, true, nil
}

// nextDelta decodes the next edge of a delta-flagged stream (WriteBinaryCodec
// with CodecDelta): zigzag-varint src and dst gaps, inline float32 weight.
func (s *BinaryStream) nextDelta() (Edge, bool, error) {
	if s.remaining == 0 {
		return Edge{}, false, nil
	}
	sGap, err := binary.ReadVarint(s.br)
	if err != nil {
		return Edge{}, false, fmt.Errorf("graph: reading delta edge src: %w", err)
	}
	dGap, err := binary.ReadVarint(s.br)
	if err != nil {
		return Edge{}, false, fmt.Errorf("graph: reading delta edge dst: %w", err)
	}
	s.prevSrc += sGap
	s.prevDst += dGap
	if s.prevSrc < 0 || s.prevSrc > maxVertex || s.prevDst < 0 || s.prevDst > maxVertex {
		return Edge{}, false, fmt.Errorf("graph: delta edge out of uint32 range (%d, %d)", s.prevSrc, s.prevDst)
	}
	e := Edge{Src: VertexID(s.prevSrc), Dst: VertexID(s.prevDst)}
	if s.Weighted {
		if _, err := io.ReadFull(s.br, s.wbuf); err != nil {
			return Edge{}, false, fmt.Errorf("graph: reading delta edge weight: %w", err)
		}
		e.Weight = bitsToFloat(binary.LittleEndian.Uint32(s.wbuf))
	}
	s.remaining--
	return e, true, nil
}

// maxVertex is the largest representable VertexID.
const maxVertex = int64(^uint32(0))

// fill reads the next block of whole records into the internal buffer.
func (s *BinaryStream) fill() error {
	n := uint64(streamBlockBytes / s.rec)
	if n > s.remaining {
		n = s.remaining
	}
	want := int(n) * s.rec
	if cap(s.buf) < want {
		s.buf = make([]byte, want)
	}
	s.buf = s.buf[:want]
	if _, err := io.ReadFull(s.br, s.buf); err != nil {
		return fmt.Errorf("graph: reading edge block: %w", err)
	}
	s.remaining -= n
	s.pos = 0
	return nil
}
