// Package iosched implements GraphSD's state-aware I/O scheduling strategy
// (paper §4.1): before each iteration it estimates the cost of the full I/O
// model (stream every sub-block sequentially) and the on-demand I/O model
// (fetch only active vertices' edge lists, partly random), and selects the
// cheaper one.
//
// The cost formulas are the paper's:
//
//	C_s = (|V|·N + |E|·(M+W)) / B_sr + |V|·N / B_sw
//	C_r = S_ran/B_rr + S_seq/B_sr + 2|V|·N/B_sr + |V|·N/B_sw
//
// C_s is priced per frontier: a full pass never reads a sub-block whose source
// interval holds no active vertex, so its edge term sums the on-disk bytes of
// the rows that do (CostFullFor), and the paper's constant is the case of every
// row live. The value terms of both formulas are priced the same way: a pass
// reads and writes back the values of the intervals it touches, not of every
// vertex (Config.EdgeCounts). C_r's index term stays the paper's |V|·N, though
// SCIU consults only its live rows' slice: priced per row too, it made a
// lattice's narrow fronts leave FCIU for SCIU pass by pass, each choice right
// on its own iteration and the run dearer, since a per-iteration comparison
// does not see the buffered second half an FCIU first half buys.
//
// The S_seq/S_ran split is computed in one O(|A|) pass over the active
// set and the degree table. A maximal run of consecutively-numbered
// edge-bearing active vertices is split at interval boundaries (each
// interval's sub-blocks are separate files with their own readers) into
// portions; each portion costs one positioning seek per sub-block its reads
// touch — at most the number of non-empty sub-blocks in the interval's grid
// row, and never more seeks than the portion issues reads. The first read
// after each seek travels at the random-class rate, the rest stream
// sequentially. Gaps consisting only of zero-degree vertices occupy no bytes
// on disk, so the runs on either side remain one sequential stream and are
// not split.
//
// Because the device model in internal/storage charges by the very same
// profile, predictions and actual charges agree by construction whenever the
// layout's per-edge on-disk bytes are uniform and every edge-bearing vertex
// stores edges in every non-empty sub-block of its row (the property test
// exercises exactly this family against the real device). Real frontiers
// deviate from those conditions, so the Scheduler also carries a calibration
// loop: Observe feeds back each iteration's measured device charge, an EWMA
// per-model correction factor rescales subsequent estimates, and a small
// hysteresis band keeps corrected near-ties from flapping the model choice.
package iosched

import (
	"fmt"
	"math"
	"time"

	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/storage"
)

// Model is the I/O access model selected for an iteration.
type Model int

const (
	// FullIO streams every sub-block sequentially (triggers FCIU).
	FullIO Model = iota
	// OnDemandIO loads only active vertices' edges (triggers SCIU).
	OnDemandIO
)

// String returns the model name.
func (m Model) String() string {
	switch m {
	case FullIO:
		return "full"
	case OnDemandIO:
		return "on-demand"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// Calibration constants: the EWMA weight of the newest actual/predicted
// ratio, the clamp keeping a wild outlier from poisoning the factor, and
// the hysteresis band a corrected challenger must beat the incumbent model
// by before the choice may flip.
const (
	calibrationAlpha = 0.5
	correctionMin    = 0.1
	correctionMax    = 10.0
	hysteresisBand   = 0.05
)

// Decision records one iteration's scheduling outcome, including everything
// needed for the Figure 10 (per-iteration model trace) and Figure 11
// (scheduling overhead) experiments.
type Decision struct {
	Iteration   int
	Model       Model
	ActiveCount int
	// SeqBytes and RanBytes are the S_seq / S_ran estimate for on-demand.
	SeqBytes int64
	RanBytes int64
	Seeks    int64
	// CostFull and CostOnDemand are the raw (uncorrected) predicted
	// iteration I/O costs from the paper's formulas.
	CostFull     time.Duration
	CostOnDemand time.Duration
	// CorrFull and CorrOnDemand are the EWMA correction factors in effect
	// when the models were compared (1.0 until calibration has observed an
	// iteration of the respective model).
	CorrFull     float64
	CorrOnDemand float64
	// Predicted is the corrected cost of the executed model. Decide fills it
	// for the chosen model; Observe overwrites it when a forced run executed
	// the other one.
	Predicted time.Duration
	// Actual is the measured device charge delta of the iteration and
	// Mispredict the relative error |Predicted−Actual|/Actual; both are
	// zero until Observe reports the iteration back.
	Actual     time.Duration
	Mispredict float64
	// Overhead is the wall-clock compute time spent making this decision.
	Overhead time.Duration
}

// Config carries the static quantities of the cost model.
type Config struct {
	Profile     storage.Profile
	NumVertices int
	NumEdges    int64
	// EdgeRecordBytes is M (+W for weighted graphs) — the decoded record
	// size.
	EdgeRecordBytes int
	// EdgeBytesOnDisk is the total on-disk edge payload. Under a compressed
	// sub-block codec this is smaller than NumEdges·EdgeRecordBytes, and it
	// is what both cost formulas must charge — the device moves compressed
	// bytes. Zero falls back to the uncompressed total.
	EdgeBytesOnDisk int64
	// EdgeBytesOnDemand is the total on-disk bytes selective (per-vertex)
	// reads move for the whole edge set. Under the delta codec this excludes
	// each block's edge-count header, which only full-block streams read.
	// Zero falls back to EdgeBytesOnDisk.
	EdgeBytesOnDemand int64
	// P is the number of vertex intervals; an active run touches up to P
	// sub-blocks per interval row, each requiring its own positioning seek.
	P int
	// BlocksPerRow, when non-nil, holds the number of non-empty sub-blocks
	// in each source interval's grid row (length P). A portion confined to
	// interval i seeks at most BlocksPerRow[i] times — empty sub-blocks are
	// never opened. Nil assumes fully-populated rows (P blocks each).
	BlocksPerRow []int
	// RowDiskBytes, when non-nil, holds each source interval's on-disk edge
	// payload (length P). The full model skips every sub-block of a source
	// interval with no active vertex, so its cost for a frontier is the summed
	// RowDiskBytes of the live rows. Nil prices every frontier at the whole
	// edge set, the paper's constant C_s. The on-demand edge term is untouched —
	// SCIU reads only active vertices' edges.
	RowDiskBytes []int64
	// EdgeCounts, when non-nil, holds every sub-block's edge count (P×P,
	// [source interval][destination interval], as the manifest's). A pass
	// reads the values of its live rows and writes back those of the intervals
	// its apply phase visits, reading them too; the destination intervals the
	// live rows reach through a non-empty sub-block bound that set (staged
	// cross-iteration contributions aside), so both formulas price those value
	// bytes for a frontier. Nil prices every
	// frontier at the whole value array both ways, the paper's constants.
	EdgeCounts [][]int64
}

// edgeBytesOnDisk resolves the EdgeBytesOnDisk fallback.
func (c Config) edgeBytesOnDisk() int64 {
	if c.EdgeBytesOnDisk > 0 {
		return c.EdgeBytesOnDisk
	}
	return c.NumEdges * int64(c.EdgeRecordBytes)
}

// diskBytesPerEdge returns the average on-disk bytes of one edge record.
func (c Config) diskBytesPerEdge() float64 {
	if c.NumEdges == 0 {
		return float64(c.EdgeRecordBytes)
	}
	return float64(c.edgeBytesOnDisk()) / float64(c.NumEdges)
}

// onDemandBytesPerEdge returns the average bytes one edge costs a selective
// read.
func (c Config) onDemandBytesPerEdge() float64 {
	if c.NumEdges == 0 {
		return float64(c.EdgeRecordBytes)
	}
	if c.EdgeBytesOnDemand > 0 {
		return float64(c.EdgeBytesOnDemand) / float64(c.NumEdges)
	}
	return c.diskBytesPerEdge()
}

// intervalLen returns the vertex count per interval (the layout's ceil
// division).
func (c Config) intervalLen() int {
	per := (c.NumVertices + c.P - 1) / c.P
	if per < 1 {
		per = 1
	}
	return per
}

// blocksInRow returns the number of non-empty sub-blocks in interval i's
// grid row.
func (c Config) blocksInRow(i int) int {
	if c.BlocksPerRow == nil {
		return c.P
	}
	return c.BlocksPerRow[i]
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	if c.NumVertices < 0 || c.NumEdges < 0 {
		return fmt.Errorf("iosched: negative graph size v=%d e=%d", c.NumVertices, c.NumEdges)
	}
	if c.EdgeRecordBytes <= 0 {
		return fmt.Errorf("iosched: non-positive edge record size %d", c.EdgeRecordBytes)
	}
	if c.P <= 0 {
		return fmt.Errorf("iosched: non-positive interval count %d", c.P)
	}
	if c.BlocksPerRow != nil {
		if len(c.BlocksPerRow) != c.P {
			return fmt.Errorf("iosched: blocks-per-row length %d != P %d", len(c.BlocksPerRow), c.P)
		}
		for i, b := range c.BlocksPerRow {
			if b < 0 || b > c.P {
				return fmt.Errorf("iosched: row %d has %d non-empty blocks, want 0..%d", i, b, c.P)
			}
		}
	}
	if c.RowDiskBytes != nil && len(c.RowDiskBytes) != c.P {
		return fmt.Errorf("iosched: row-disk-bytes length %d != P %d", len(c.RowDiskBytes), c.P)
	}
	if c.EdgeCounts != nil {
		if len(c.EdgeCounts) != c.P {
			return fmt.Errorf("iosched: edge counts have %d rows, want P=%d", len(c.EdgeCounts), c.P)
		}
		for i, row := range c.EdgeCounts {
			if len(row) != c.P {
				return fmt.Errorf("iosched: edge-count row %d has %d cells, want P=%d", i, len(row), c.P)
			}
		}
	}
	return nil
}

// Scheduler selects the I/O access model each iteration and keeps the
// decision history plus the calibration state fed by Observe. Not safe for
// concurrent use; the engine consults it once per iteration from the driver
// goroutine.
type Scheduler struct {
	cfg     Config
	history []Decision

	// factor holds the per-model EWMA correction (actual/raw cost), indexed
	// by Model. 1.0 until the model has been observed.
	factor [2]float64
	// observed counts Observe calls per model; mispredict* aggregate the
	// relative errors for the Accuracy summary.
	observed       [2]int
	mispredictSum  float64
	mispredictMax  float64
	mispredictLast float64

	// live and reached are span's per-interval scratch (with EdgeCounts only).
	live, reached []bool

	// allActive is EstimateOnDemand over an all-active frontier, nil until a
	// Decide first sees one: it reads nothing but the degrees, which Decide is
	// given the same on every call.
	allActive *onDemandSplit
}

// onDemandSplit is one EstimateOnDemand result.
type onDemandSplit struct{ seqBytes, ranBytes, seeks int64 }

// New returns a Scheduler for the given configuration.
func New(cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{cfg: cfg}
	s.factor[FullIO] = 1
	s.factor[OnDemandIO] = 1
	if cfg.EdgeCounts != nil {
		s.live, s.reached = make([]bool, cfg.P), make([]bool, cfg.P)
	}
	return s, nil
}

// passSpan is what a pass over one frontier touches, in the units of the cost
// formulas: the on-disk edge bytes of the rows it streams, and the vertices
// whose values it reads and writes back.
type passSpan struct {
	edgeBytes     int64
	read, written int64
}

// span returns the pass span of active: every row live, every value read and
// written back — the paper's constants — unless the Config carries per-row
// bytes (then only live rows stream) or edge counts (then values are read over
// the live rows and the intervals they reach, and written back over the
// latter). A nil active set is the constants.
func (s *Scheduler) span(active *bitset.ActiveSet) passSpan {
	n := int64(s.cfg.NumVertices)
	sp := passSpan{edgeBytes: s.cfg.edgeBytesOnDisk(), read: n, written: n}
	rows, cells := s.cfg.RowDiskBytes, s.cfg.EdgeCounts
	if active == nil || (rows == nil && cells == nil) {
		return sp
	}
	if rows != nil {
		sp.edgeBytes = 0
	}
	if cells != nil {
		sp.read, sp.written = 0, 0
		clear(s.live)
		clear(s.reached)
	}
	per := s.cfg.intervalLen()
	interval := func(i int) (lo, hi int) {
		lo = min(i*per, s.cfg.NumVertices)
		return lo, min(lo+per, s.cfg.NumVertices)
	}
	for i := 0; i < s.cfg.P; i++ {
		lo, hi := interval(i)
		if lo >= hi {
			break
		}
		if active.CountRange(lo, hi) == 0 {
			continue
		}
		if rows != nil {
			sp.edgeBytes += rows[i]
		}
		if cells != nil {
			s.live[i] = true
			for j, c := range cells[i] {
				if c > 0 {
					s.reached[j] = true
				}
			}
		}
	}
	if cells != nil {
		for i := 0; i < s.cfg.P; i++ {
			lo, hi := interval(i)
			if s.reached[i] {
				sp.written += int64(hi - lo)
			}
			if s.reached[i] || s.live[i] {
				sp.read += int64(hi - lo)
			}
		}
	}
	return sp
}

// CostFull returns C_s with every row live — the paper's constant, and the
// most a full pass costs. The edge term uses on-disk bytes: a compressed
// layout streams fewer bytes, so its full-model cost genuinely drops and the
// SCIU/FCIU break-even point shifts with it.
func (s *Scheduler) CostFull() time.Duration { return s.costFull(s.span(nil)) }

// costFull is C_s for a pass of span sp: its edge bytes and its values read,
// then its values written back.
func (s *Scheduler) costFull(sp passSpan) time.Duration {
	p := s.cfg.Profile
	return p.SeqCost(storage.SeqRead, sp.read*graph.VertexValueBytes+sp.edgeBytes) +
		p.SeqCost(storage.SeqWrite, sp.written*graph.VertexValueBytes)
}

// CostFullFor returns the full-model cost for a specific frontier: the engine
// skips every sub-block of a source interval holding no active vertex, so
// only live rows' on-disk bytes are charged — no bytes and no seeks for
// skipped blocks — and, with EdgeCounts, only the values of the intervals the
// pass touches. Without either (or without an active set to inspect) it is
// CostFull; over an all-active frontier that reaches every interval it is
// CostFull to the nanosecond.
func (s *Scheduler) CostFullFor(active *bitset.ActiveSet) time.Duration {
	return s.costFull(s.span(active))
}

// EstimateOnDemand computes the S_seq/S_ran split and the seek count for
// the given active set in one pass over the active vertices and the degree
// table. Bytes are estimated at the layout's average selective-read bytes
// per edge, so a compressed layout's on-demand reads are costed at what the
// device will actually move.
//
// A maximal run of edge-bearing active vertices (gaps of zero-degree
// vertices occupy no bytes and do not break a run) is split at interval
// boundaries into portions. Each portion seeks once per sub-block of its
// interval's grid row that its reads touch — capped at the row's non-empty
// block count and at the portion's edge count — and its first edge-bearing
// vertex's bytes are charged at the post-seek random rate.
func (s *Scheduler) EstimateOnDemand(active *bitset.ActiveSet, degrees []uint32) (seqBytes, ranBytes, seeks int64) {
	rec := s.cfg.onDemandBytesPerEdge()
	per := s.cfg.intervalLen()
	prev := -2 // last active vertex seen; -2 so vertex 0 never chains
	curIv := -1
	var portionEdges int64 // active edges accumulated in the current portion
	var firstDeg int64     // out-degree of the portion's first edge-bearing vertex
	flush := func() {
		if portionEdges == 0 {
			firstDeg = 0
			return
		}
		blocks := int64(s.cfg.blocksInRow(curIv))
		if blocks > portionEdges {
			blocks = portionEdges
		}
		seeks += blocks
		total := int64(math.Round(float64(portionEdges) * rec))
		first := int64(math.Round(float64(firstDeg) * rec))
		if first > total {
			first = total
		}
		ranBytes += first
		seqBytes += total - first
		portionEdges, firstDeg = 0, 0
	}
	active.ForEach(func(v int) bool {
		iv := v / per
		if iv != curIv || (v != prev+1 && gapHasEdges(degrees, prev+1, v)) {
			flush()
		}
		curIv = iv
		d := int64(degrees[v])
		if firstDeg == 0 {
			firstDeg = d
		}
		portionEdges += d
		prev = v
		return true
	})
	flush()
	return seqBytes, ranBytes, seeks
}

// gapHasEdges reports whether any vertex in [lo, hi) has edges. A gap of
// zero-degree vertices occupies no bytes on disk (their index runs are
// empty), so the reads on either side of it remain one sequential stream.
func gapHasEdges(degrees []uint32, lo, hi int) bool {
	for v := lo; v < hi; v++ {
		if degrees[v] > 0 {
			return true
		}
	}
	return false
}

// CostOnDemand returns C_r for a precomputed split of active's edges: the
// whole index, and with EdgeCounts the values of the intervals the pass
// touches (see CostFullFor) — otherwise, and over an all-active frontier that
// reaches every interval, the paper's 2|V|·N read and |V|·N write-back.
func (s *Scheduler) CostOnDemand(seqBytes, ranBytes, seeks int64, active *bitset.ActiveSet) time.Duration {
	return s.costOnDemand(seqBytes, ranBytes, seeks, s.span(active))
}

func (s *Scheduler) costOnDemand(seqBytes, ranBytes, seeks int64, sp passSpan) time.Duration {
	p := s.cfg.Profile
	index := int64(s.cfg.NumVertices) * graph.IndexEntryBytes
	return p.SeqCost(storage.RandRead, ranBytes) +
		time.Duration(seeks)*p.SeekLatency +
		p.SeqCost(storage.SeqRead, seqBytes) +
		p.SeqCost(storage.SeqRead, index+sp.read*graph.VertexValueBytes) +
		p.SeqCost(storage.SeqWrite, sp.written*graph.VertexValueBytes)
}

// scaleCost applies a correction factor to a raw cost estimate.
func scaleCost(c time.Duration, factor float64) time.Duration {
	return time.Duration(float64(c) * factor)
}

// Decide runs the benefit evaluation for one iteration and records and
// returns the decision. degrees must hold the global out-degree of every
// vertex, and must be the same on every call to one Scheduler: the estimate
// over an all-active frontier is computed on the first such call and reused
// by every later one.
//
// The models are compared by their corrected costs (raw formula × the
// model's EWMA correction). Exact ties go to on-demand. Once calibration
// has at least one observation, a decision that would flip the model of the
// previous iteration must beat the incumbent by the hysteresis band —
// correction nudges on a near-tie cannot make the choice oscillate.
func (s *Scheduler) Decide(iteration int, active *bitset.ActiveSet, degrees []uint32) Decision {
	start := time.Now()
	seqB, ranB, seeks := s.estimate(active, degrees)
	sp := s.span(active)
	d := Decision{
		Iteration:    iteration,
		ActiveCount:  active.Count(),
		SeqBytes:     seqB,
		RanBytes:     ranB,
		Seeks:        seeks,
		CostFull:     s.costFull(sp),
		CostOnDemand: s.costOnDemand(seqB, ranB, seeks, sp),
		CorrFull:     s.factor[FullIO],
		CorrOnDemand: s.factor[OnDemandIO],
	}
	cf := scaleCost(d.CostFull, d.CorrFull)
	cr := scaleCost(d.CostOnDemand, d.CorrOnDemand)
	if cr <= cf {
		d.Model = OnDemandIO
	} else {
		d.Model = FullIO
	}
	if s.observed[FullIO]+s.observed[OnDemandIO] > 0 && len(s.history) > 0 {
		prev := s.history[len(s.history)-1].Model
		if d.Model != prev {
			challenger, incumbent := cr, cf
			if d.Model == FullIO {
				challenger, incumbent = cf, cr
			}
			if float64(challenger) > (1-hysteresisBand)*float64(incumbent) {
				d.Model = prev
			}
		}
	}
	if d.Model == OnDemandIO {
		d.Predicted = cr
	} else {
		d.Predicted = cf
	}
	d.Overhead = time.Since(start)
	s.history = append(s.history, d)
	return d
}

// estimate is EstimateOnDemand, taken once per Scheduler over an all-active
// frontier: a run that keeps every vertex active (PageRank) would otherwise
// walk every vertex on every Decide to the same answer.
func (s *Scheduler) estimate(active *bitset.ActiveSet, degrees []uint32) (seqBytes, ranBytes, seeks int64) {
	if active.Count() != active.Len() {
		return s.EstimateOnDemand(active, degrees)
	}
	if s.allActive == nil {
		seq, ran, sk := s.EstimateOnDemand(active, degrees)
		s.allActive = &onDemandSplit{seq, ran, sk}
	}
	a := s.allActive
	return a.seqBytes, a.ranBytes, a.seeks
}

// Observe feeds the measured device charge delta of the iteration whose
// decision was recorded last back into the scheduler. executed names the
// model that actually ran (a forced run may differ from the decision). It
// annotates the decision with the corrected prediction, the actual charge
// and the relative misprediction, then folds actual/raw into the executed
// model's EWMA correction factor. Returns the prediction and misprediction
// it recorded.
func (s *Scheduler) Observe(executed Model, actual time.Duration) (predicted time.Duration, mispredict float64) {
	if len(s.history) == 0 {
		return 0, 0
	}
	d := &s.history[len(s.history)-1]
	raw, corr := d.CostFull, d.CorrFull
	if executed == OnDemandIO {
		raw, corr = d.CostOnDemand, d.CorrOnDemand
	}
	predicted = scaleCost(raw, corr)
	if actual > 0 {
		mispredict = math.Abs(float64(predicted-actual)) / float64(actual)
	}
	d.Predicted = predicted
	d.Actual = actual
	d.Mispredict = mispredict
	s.observed[executed]++
	s.mispredictSum += mispredict
	if mispredict > s.mispredictMax {
		s.mispredictMax = mispredict
	}
	s.mispredictLast = mispredict
	if raw > 0 && actual > 0 {
		ratio := float64(actual) / float64(raw)
		f := (1-calibrationAlpha)*s.factor[executed] + calibrationAlpha*ratio
		s.factor[executed] = math.Min(math.Max(f, correctionMin), correctionMax)
	}
	return predicted, mispredict
}

// Accuracy summarises the calibration loop's prediction quality.
type Accuracy struct {
	// Observed counts iterations fed back through Observe.
	Observed int
	// MeanMispredict/MaxMispredict/LastMispredict aggregate the relative
	// errors |predicted−actual|/actual of the observed iterations.
	MeanMispredict float64
	MaxMispredict  float64
	LastMispredict float64
	// CorrFull and CorrOnDemand are the current EWMA correction factors.
	CorrFull     float64
	CorrOnDemand float64
}

// Accuracy returns the current calibration summary.
func (s *Scheduler) Accuracy() Accuracy {
	a := Accuracy{
		Observed:       s.observed[FullIO] + s.observed[OnDemandIO],
		MaxMispredict:  s.mispredictMax,
		LastMispredict: s.mispredictLast,
		CorrFull:       s.factor[FullIO],
		CorrOnDemand:   s.factor[OnDemandIO],
	}
	if a.Observed > 0 {
		a.MeanMispredict = s.mispredictSum / float64(a.Observed)
	}
	return a
}

// History returns the recorded decisions in iteration order.
func (s *Scheduler) History() []Decision { return s.history }

// TotalOverhead returns the cumulative wall-clock cost of all benefit
// evaluations, the numerator of the Figure 11 comparison.
func (s *Scheduler) TotalOverhead() time.Duration {
	var t time.Duration
	for _, d := range s.history {
		t += d.Overhead
	}
	return t
}
