package core

import (
	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/storage"
)

// semBegin refills the engine's row-activity vector from the frontier the
// pass about to start scatters from: rowLive[i] says source interval i holds
// an active vertex. A sub-block in a dead row scatters nothing (the scatter
// filter excludes every one of its edges), so skipping its read cannot change
// any result. All vertex state is in RAM, so the vector costs O(P ·
// interval/64) popcounts — no per-vertex index walk — and the start of a pass
// is exactly when activity flips: the frontier is frozen for the whole pass
// (applyInterval mutates touched/newActive, never active). Every pass driver
// calls this before building its prefetch sequence, so the pipeline and the
// consumer skip by the same vector.
//
// Values follow the same state (DESIGN.md §11): the pass reads the values of
// its live rows, charged here, and of the intervals its apply phase visits,
// charged with their write-back by semEnd. So do the terms the pass's
// scatters read (fillTerms): the live rows' values are final. After a pass
// that crossed iterations (termsAhead) they are filled already: that pass
// filled every interval's terms as it applied it, and advance handed them on
// with the values.
func (e *Engine) semBegin() {
	filled := e.termsAhead
	e.termsAhead = false
	for i := range e.rowLive {
		lo, hi := e.layout.Meta.Interval(i)
		e.rowLive[i] = e.allLive || e.active.CountRange(lo, hi) > 0
		if e.rowLive[i] && !filled {
			e.fillTerms(e.termPrev, e.valPrev, lo, hi)
		}
	}
	e.layout.ChargeValues(storage.SeqRead, func(i int) bool { return e.rowLive[i] })
	if e.semBegun != nil {
		e.semBegun()
	}
}

// semEnd charges the rest of a finished pass's value traffic: the read of every
// interval its apply phase visited that semBegin did not charge as a live row,
// and the write-back of every interval it visited. A pass over an all-active
// frontier — every interval live and applied — pays the whole array both ways,
// in one transfer each, as the paper's formulas do, and so does every pass of
// an engine that is not state-aware (Engine.allLive).
func (e *Engine) semEnd() {
	e.layout.ChargeValues(storage.SeqRead, func(i int) bool { return e.applied[i] && !e.rowLive[i] })
	e.layout.ChargeValues(storage.SeqWrite, func(i int) bool { return e.allLive || e.applied[i] })
}

// semSkip records that the pass over cells never read sub-block (i, j) of a
// dead row. It counts device traffic avoided — no bytes, no seek — so an empty
// block, which costs no I/O on any path, is not counted, and neither is a
// resident one: a cell the pass would have been served by the per-run buffer.
func (e *Engine) semSkip(cells passCells, i, j int) {
	if e.layout.Meta.SubBlockEdges(i, j) == 0 || cells.buffered() && e.buf.Contains(buffer.Key{I: i, J: j}) {
		return
	}
	e.plStats.Skipped++
	e.plStats.SkippedBytes += e.layout.Meta.SubBlockDiskBytes(i, j)
}

// passPriority ranks FCIU cell k, whose active-edge estimate is est, in the
// per-run buffer — at admission and at the refresh after fciu-1 alike. A
// secondary (i > j), which the pass reads twice, ranks a tier above every
// primary, dead or not, so the store evicts primaries first and keeps the
// secondaries a buffer of secondaries alone would keep.
func passPriority(k buffer.Key, est int64) int64 {
	if k.I > k.J {
		return 1<<62 + est // an estimate never exceeds its cell's edge count
	}
	return est
}

// payloadPriority estimates the active-edge count of a payload the per-run
// buffer holds or is offered, without decoding it: the block's edge count
// scaled by its source interval's active fraction, clamped to ≥1 while the
// bitmap says the block is live so a hot block is never demoted to dead by
// estimation.
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

// SEMStats reports a run's state-aware skipping and compressed-tier outcomes.
// The compressed tiers are a per-run buffer of payloads — every run on a
// delta-coded layout keeps its buffered blocks that way — and a shared cache
// built with buffer.NewSharedCompressed.
type SEMStats struct {
	// BlocksSkipped counts non-empty sub-blocks never read because their
	// source interval held no active vertex (every run skips them);
	// BytesSkipped is their summed on-disk size — device traffic avoided, so
	// a dead-row cell resident in the per-run buffer is not in it.
	BlocksSkipped int64
	BytesSkipped  int64
	// CompressedHits counts sub-block loads served from a compressed tier,
	// each paying a decode or, over a narrow frontier, a run view — on a
	// prefetch worker or the consumer — instead of a device read. Either is in
	// Result.DecodeTime.
	CompressedHits int64
	// CompressedBytes / DecodedBytes sum the encoded and decoded sizes of
	// every payload a compressed tier admitted. Their ratio is the tier's
	// effective-capacity multiplier: how many bytes of decoded graph one RAM
	// byte holds.
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
