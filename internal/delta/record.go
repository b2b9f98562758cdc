// Package delta makes a published graph layout mutable. Writes take the
// LSM path: a batch of edge insertions/deletions is framed into the
// mutation WAL (fsync-before-ack), applied to an in-RAM memtable keyed by
// the layout's P×P grid, sealed into sorted on-disk delta layers when the
// memtable fills, and eventually folded into the base grid by a background
// compaction that publishes a new layout generation with one atomic
// manifest rename. Reads never see a half-applied state: a job pins a
// Snapshot at submit and every sub-block it loads is the base content
// overlaid with exactly the layers and frozen memtable captured by that
// snapshot.
package delta

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/graphsd/graphsd/internal/graph"
)

// Op is a mutation kind.
type Op uint8

const (
	// OpInsert adds edge (Src, Dst) with Weight, replacing any existing
	// copy (and all duplicate copies the base layout may hold).
	OpInsert Op = 1
	// OpDelete removes every copy of edge (Src, Dst). Deleting an absent
	// edge is a no-op.
	OpDelete Op = 2
)

// Mutation is one edge-level change. Weight is meaningful only for inserts
// into weighted graphs.
type Mutation struct {
	Op     Op
	Src    graph.VertexID
	Dst    graph.VertexID
	Weight float32
}

// Validate rejects malformed mutations before they reach the WAL.
func (m Mutation) Validate(numVertices int, weighted bool) error {
	if m.Op != OpInsert && m.Op != OpDelete {
		return fmt.Errorf("delta: unknown op %d", m.Op)
	}
	if int(m.Src) >= numVertices || int(m.Dst) >= numVertices {
		return fmt.Errorf("delta: edge (%d,%d) outside vertex range [0,%d)", m.Src, m.Dst, numVertices)
	}
	if m.Op == OpInsert && weighted {
		if w := float64(m.Weight); math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("delta: edge (%d,%d) has non-finite weight", m.Src, m.Dst)
		}
	}
	return nil
}

// WAL record kinds. A batch record carries acknowledged mutations; a seal
// record marks that every batch up to a sequence number is durable in a
// delta layer and does not need replay.
const (
	recBatch = 'B'
	recSeal  = 'S'
)

// record is a decoded WAL frame.
type record struct {
	kind byte
	seq  int64      // batch: batch sequence; seal: sealed-through sequence
	muts []Mutation // batch only
}

// encodeBatch frames a mutation batch for the WAL. Weights are encoded
// only for inserts into weighted graphs, so unweighted logs stay compact.
func encodeBatch(buf []byte, seq int64, muts []Mutation, weighted bool) []byte {
	buf = append(buf, recBatch)
	buf = binary.AppendUvarint(buf, uint64(seq))
	buf = binary.AppendUvarint(buf, uint64(len(muts)))
	for _, m := range muts {
		buf = append(buf, byte(m.Op))
		buf = binary.AppendUvarint(buf, uint64(m.Src))
		buf = binary.AppendUvarint(buf, uint64(m.Dst))
		if weighted && m.Op == OpInsert {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(m.Weight))
		}
	}
	return buf
}

// encodeSeal frames a seal marker: batches with seq <= through are covered
// by a published delta layer.
func encodeSeal(buf []byte, through int64) []byte {
	buf = append(buf, recSeal)
	return binary.AppendUvarint(buf, uint64(through))
}

// decodeRecord parses one WAL payload of a graph with numVertices vertices.
// Used both for replay and as the WAL's Accept hook (a CRC-valid frame that
// does not decode is treated as tail corruption). Every mutation must pass
// Validate, the rule Apply enforces before framing a batch, so a frame replay
// accepts never reaches the store with a vertex outside the graph.
func decodeRecord(data []byte, numVertices int, weighted bool) (record, error) {
	var rec record
	if len(data) == 0 {
		return rec, fmt.Errorf("delta: empty record")
	}
	rec.kind = data[0]
	data = data[1:]
	seq, n := binary.Uvarint(data)
	if n <= 0 {
		return rec, fmt.Errorf("delta: truncated sequence")
	}
	rec.seq = int64(seq)
	data = data[n:]
	switch rec.kind {
	case recSeal:
		if len(data) != 0 {
			return rec, fmt.Errorf("delta: trailing bytes in seal record")
		}
		return rec, nil
	case recBatch:
		count, n := binary.Uvarint(data)
		if n <= 0 {
			return rec, fmt.Errorf("delta: truncated count")
		}
		data = data[n:]
		if count > uint64(len(data)) { // each mutation is >= 3 bytes; cheap bound
			return rec, fmt.Errorf("delta: implausible batch count %d", count)
		}
		rec.muts = make([]Mutation, 0, count)
		for k := uint64(0); k < count; k++ {
			if len(data) == 0 {
				return rec, fmt.Errorf("delta: truncated mutation")
			}
			m := Mutation{Op: Op(data[0])}
			data = data[1:]
			src, n := binary.Uvarint(data)
			if n <= 0 || src > math.MaxUint32 {
				return rec, fmt.Errorf("delta: bad source vertex")
			}
			data = data[n:]
			dst, n := binary.Uvarint(data)
			if n <= 0 || dst > math.MaxUint32 {
				return rec, fmt.Errorf("delta: bad destination vertex")
			}
			data = data[n:]
			m.Src, m.Dst = graph.VertexID(src), graph.VertexID(dst)
			if weighted && m.Op == OpInsert {
				if len(data) < 4 {
					return rec, fmt.Errorf("delta: truncated weight")
				}
				m.Weight = math.Float32frombits(binary.LittleEndian.Uint32(data))
				data = data[4:]
			}
			if err := m.Validate(numVertices, weighted); err != nil {
				return rec, err
			}
			rec.muts = append(rec.muts, m)
		}
		if len(data) != 0 {
			return rec, fmt.Errorf("delta: trailing bytes in batch record")
		}
		return rec, nil
	default:
		return rec, fmt.Errorf("delta: unknown record kind %q", rec.kind)
	}
}

// ApplyToGraph returns a new graph equal to g with muts applied in order —
// the reference semantics the LSM path must reproduce. Used by tests to
// build the "freshly preprocessed merged layout" a mutated layout is
// compared against.
func ApplyToGraph(g *graph.Graph, muts []Mutation) *graph.Graph {
	type val struct {
		w   float32
		del bool
	}
	final := make(map[uint64]val)
	for _, m := range muts {
		w := m.Weight
		if !g.Weighted {
			w = 0
		}
		final[uint64(m.Src)<<32|uint64(m.Dst)] = val{w: w, del: m.Op == OpDelete}
	}
	out := &graph.Graph{NumVertices: g.NumVertices, Weighted: g.Weighted}
	for _, e := range g.Edges {
		if _, touched := final[uint64(e.Src)<<32|uint64(e.Dst)]; !touched {
			out.Edges = append(out.Edges, e)
		}
	}
	for key, v := range final {
		if v.del {
			continue
		}
		out.Edges = append(out.Edges, graph.Edge{
			Src:    graph.VertexID(key >> 32),
			Dst:    graph.VertexID(key & math.MaxUint32),
			Weight: v.w,
		})
	}
	out.SortBySrc()
	return out
}
