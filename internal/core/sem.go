package core

import (
	"time"

	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/partition"
)

// semBitmap is the semi-external-memory activity summary consulted on every
// sub-block skip decision: a P-bit "interval has any active vertex" row
// vector. A sub-block in a dead row scatters nothing (the scatter filter
// excludes every one of its edges), so skipping its read cannot change any
// result. All vertex state is in RAM, so the row vector is derived in
// O(P · interval/64) bitset popcounts — no per-vertex index walk — and
// rebuilt at the start of every pass, which is exactly when activity flips:
// the frontier a pass scatters from is frozen for the whole pass
// (applyInterval mutates touched/newActive, never active).
type semBitmap struct{ rows []bool }

// newSEMBitmap derives the row-activity vector of set.
func newSEMBitmap(meta *partition.Manifest, set *bitset.ActiveSet) *semBitmap {
	rows := make([]bool, meta.P)
	for i := 0; i < meta.P; i++ {
		lo, hi := meta.Interval(i)
		rows[i] = set.CountRange(lo, hi) > 0
	}
	return &semBitmap{rows: rows}
}

// rowLive reports whether source interval i holds any active vertex.
func (b *semBitmap) rowLive(i int) bool { return b.rows[i] }

// semBegin rebuilds the block-activity bitmap from the pass's frontier, or
// clears it when SEM is off. Every pass driver calls this before building
// its prefetch sequence, so the pipeline and the consumer skip by the same
// bitmap.
func (e *Engine) semBegin() {
	if e.opts.SEM {
		e.sem = newSEMBitmap(&e.layout.Meta, e.active)
	} else {
		e.sem = nil
	}
}

// semSkip records that non-empty sub-block (i, j) was proven dead by the
// bitmap and never read: no bytes, no seek. Empty blocks cost no I/O on any
// path and are not counted.
func (e *Engine) semSkip(i, j int) {
	if e.layout.Meta.SubBlockEdges(i, j) == 0 {
		return
	}
	e.plStats.Skipped++
	e.plStats.SkippedBytes += e.layout.Meta.SubBlockDiskBytes(i, j)
}

// payloadPriority estimates the active-edge count of a compressed-tier
// resident without decoding it: the block's edge count scaled by its source
// interval's active fraction, clamped to ≥1 while the bitmap says the block
// is live so a hot block is never demoted to dead by estimation.
func (e *Engine) payloadPriority(k buffer.Key, set *bitset.ActiveSet) int64 {
	lo, hi := e.layout.Meta.Interval(k.I)
	act := int64(set.CountRange(lo, hi))
	if act == 0 || hi <= lo {
		return 0
	}
	est := act * e.layout.Meta.SubBlockEdges(k.I, k.J) / int64(hi-lo)
	if est < 1 {
		est = 1
	}
	return est
}

// SEMStats reports a run's semi-external-memory outcomes.
type SEMStats struct {
	// Enabled reports that the run used the SEM fast path: Options.SEM
	// and/or a compressed shared cache.
	Enabled bool
	// BlocksSkipped counts non-empty sub-blocks never read because the
	// block-activity bitmap proved them dead; BytesSkipped is their summed
	// on-disk size — device traffic the bitmap avoided.
	BlocksSkipped int64
	BytesSkipped  int64
	// CompressedHits counts sub-block loads served from a compressed cache
	// tier (per-run buffer or shared), each paying a decode instead of a
	// device read; DecodeTime is the wall clock all compressed-tier encode
	// round-trips spent decoding (overlapped with compute when the hit
	// lands on a pipeline worker).
	CompressedHits int64
	DecodeTime     time.Duration
	// CompressedBytes / DecodedBytes sum the encoded and decoded sizes of
	// every payload the run offered to a compressed tier. Their ratio is
	// the tier's effective-capacity multiplier: how many bytes of decoded
	// graph one RAM byte holds.
	CompressedBytes int64
	DecodedBytes    int64
}

// EffectiveCapacityRatio returns DecodedBytes/CompressedBytes — ≥2 means
// the compressed tier holds at least twice the graph per RAM byte compared
// to caching decoded edges.
func (s SEMStats) EffectiveCapacityRatio() float64 {
	if s.CompressedBytes <= 0 {
		return 0
	}
	return float64(s.DecodedBytes) / float64(s.CompressedBytes)
}
