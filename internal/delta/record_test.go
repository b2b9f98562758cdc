package delta

import (
	"slices"
	"testing"
)

// FuzzMutationRecord feeds arbitrary payloads to the mutation-WAL decoder,
// which replay runs on every CRC-valid frame (and, as the WAL's Accept hook,
// decides which frames replay gets at all). Nothing may panic; every
// mutation of an accepted record passes Validate against the graph, as Apply
// requires of every batch it frames; and an accepted record re-encodes to a
// frame that decodes to the same record.
func FuzzMutationRecord(f *testing.F) {
	const n = 128 // the vertex count of gen.RMAT(7, 4)
	f.Add(encodeBatch(nil, 3, []Mutation{{Op: OpInsert, Src: 1, Dst: 2, Weight: 2.5}, {Op: OpDelete, Src: 4, Dst: 5}}, true), true)
	f.Add(encodeBatch(nil, 1, []Mutation{{Op: OpInsert, Src: 0, Dst: n - 1}, {Op: OpDelete, Src: n - 1, Dst: 0}}, false), false)
	f.Add(encodeSeal(nil, 9), false)
	// An insert from a vertex beyond the graph: CRC-valid on disk, refused
	// by Apply, and once a panic in replay's resolve.
	f.Add(encodeBatch(nil, 1, []Mutation{{Op: OpInsert, Src: n + 1000, Dst: 0}}, false), false)
	f.Fuzz(func(t *testing.T, data []byte, weighted bool) {
		rec, err := decodeRecord(data, n, weighted)
		if err != nil {
			return
		}
		for _, m := range rec.muts {
			if err := m.Validate(n, weighted); err != nil {
				t.Fatalf("accepted record holds an invalid mutation %+v: %v", m, err)
			}
		}
		var again []byte
		switch rec.kind {
		case recSeal:
			again = encodeSeal(nil, rec.seq)
		case recBatch:
			again = encodeBatch(nil, rec.seq, rec.muts, weighted)
		default:
			t.Fatalf("accepted a record of unknown kind %q", rec.kind)
		}
		back, err := decodeRecord(again, n, weighted)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if back.kind != rec.kind || back.seq != rec.seq || !slices.Equal(back.muts, rec.muts) {
			t.Fatalf("re-encoded record decodes to %+v, want %+v", back, rec)
		}
	})
}
