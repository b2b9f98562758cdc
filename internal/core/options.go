package core

import (
	"fmt"
	"time"

	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/iosched"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/pipeline"
	"github.com/graphsd/graphsd/internal/storage"
)

// Options configures an engine run. The zero value selects the full
// GraphSD behaviour; the Disable*/Force* switches express the paper's
// ablation baselines (§5.4):
//
//   - b1: DisableCrossIteration = true (current-iteration updates only)
//   - b2/b3: ForceModel = &FullIO (load all sub-blocks every iteration)
//   - b4: ForceModel = &OnDemandIO (selective loads every iteration)
//   - "no buffering": BufferBytes = 0 with DefaultBuffer unset
type Options struct {
	// MaxIterations overrides the program's iteration bound when positive.
	MaxIterations int
	// DisableCrossIteration turns off cross-iteration value computation in
	// both update models (ablation GraphSD-b1).
	DisableCrossIteration bool
	// ForceModel pins the I/O access model instead of consulting the
	// state-aware scheduler (ablations GraphSD-b3 / GraphSD-b4).
	ForceModel *iosched.Model
	// BufferBytes is the capacity of the per-run sub-block buffer: under BSP
	// it keeps the sub-blocks FCIU passes read, ranked by active-edge count
	// with the secondaries, which the pass reads twice, above every other
	// cell; under Async the blocks of the rows the
	// scheduler ranks highest, ranked by the row's queue key. The codec alone
	// picks the form: on a delta-coded layout the blocks' verified payloads,
	// charged their on-disk bytes and decoded per hit off the consumer, or
	// viewed on it over a narrow frontier (the semi-external-memory compressed
	// tier); on a raw layout decoded edges. Zero disables buffering (the
	// Figure 12 "without buffering" variant) unless DefaultBuffer is set, in
	// which case a capacity of 1/4 of the decoded edge data is used.
	BufferBytes int64
	// DefaultBuffer selects an automatic buffer capacity when BufferBytes
	// is zero.
	DefaultBuffer bool
	// Threads is ignored: a run uses at most two compute goroutines — the
	// engine's, and during a dense FCIU first pass the helper that runs its
	// iteration t+1 scatters — and each accumulator array has one writer, in
	// the serial order, so its outputs do not depend on the host's core
	// count. The field stays until the benchmark module, which sets it, is
	// next edited.
	Threads int
	// PrefetchDepth is the number of sub-blocks the I/O pipeline may hold
	// in flight ahead of the consumer (also its fetch concurrency). Zero
	// selects the default of 4; a negative value disables pipelining and
	// restores fully synchronous loads. Buffer-resident sub-blocks are never
	// prefetched.
	PrefetchDepth int
	// PrefetchBytes bounds the decoded bytes held by in-flight and
	// ready-but-unconsumed prefetches. Zero selects the default of 16 MiB.
	// A single sub-block larger than the budget is admitted alone, so an
	// oversized cell degrades to synchronous loading rather than stalling
	// the pipeline forever.
	PrefetchBytes int64
	// OnIteration, when non-nil, is invoked after every logical iteration
	// with that iteration's statistics — progress reporting for long runs
	// and for the job server's status endpoint. It runs on the engine
	// goroutine; keep it cheap.
	OnIteration func(IterStat)
	// SharedBlocks, when non-nil, routes full sub-block loads (pipelined
	// and synchronous) through a concurrency-safe cache shared with other
	// engines on the same layout, deduplicating device reads between
	// concurrent jobs (single-flight per grid key). Selective reads bypass
	// it. The per-run priority buffer (BufferBytes) still operates in front
	// of it. A cache built with buffer.NewSharedCompressed stores delta
	// payloads; the engine decodes hits in the loading worker and reports
	// the decode time back, and on a delta layout the per-run buffer keeps
	// such an entry as its resident rather than a copy.
	SharedBlocks *buffer.Shared
	// Checkpoint configures crash-safe iteration checkpointing and resume.
	Checkpoint CheckpointOptions
	// Async replaces the BSP iteration loop with the asynchronous work-list
	// engine: each step processes the source interval with the most active
	// vertices, with no global barrier, until the frontier drains.
	// Requires a label-correcting program (Monotonic: cc, sssp, bfs); any
	// other is rejected at run start. Results are bit-identical to BSP's, but
	// the iteration trace, paths, and traffic differ. ForceModel is ignored.
	// The per-run buffer (BufferBytes) keeps hot rows' blocks in memory; its
	// size changes which bytes move, never which row runs next.
	Async bool
}

// CheckpointOptions controls checkpoint/resume of an engine run. A
// checkpoint captures the complete loop state at a step boundary (vertex
// values, staged cross-iteration accumulators, frontier bitsets, and under
// Async the scheduler's step state), so a run resumed from it produces
// results bit-identical to one that was never interrupted.
//
// The state is encoded at the step boundary and written in the background
// while the next step runs; the next image waits for that write, not the
// step. Every return from the run — success, error or cancellation — waits
// for the last write, so the directory then holds the last image taken. A
// process that dies mid-run leaves the last image taken or the one before it;
// a resume from either is bit-identical all the same.
type CheckpointOptions struct {
	// Every takes a checkpoint after every Every completed iterations (under
	// Async: scheduler steps).
	// Zero (with Resume unset) disables checkpointing.
	Every int
	// Dir is the host directory holding the checkpoint file. It is a plain
	// directory, not part of the simulated device, so injected device
	// faults never corrupt recovery state.
	Dir string
	// Resume restores the checkpoint in Dir before the first iteration.
	// When Dir holds no checkpoint the run simply starts fresh; a corrupt
	// or mismatched checkpoint is an error.
	Resume bool
}

func (c CheckpointOptions) saveEnabled() bool { return c.Every > 0 && c.Dir != "" }

// bufferBytes is the per-run buffer's capacity over a layout of manifest m.
func (o Options) bufferBytes(m *partition.Manifest) int64 {
	if o.BufferBytes == 0 && o.DefaultBuffer {
		return m.EdgeBytesTotal() / 4
	}
	return o.BufferBytes
}

// payloads reports whether the per-run buffer keeps payloads over a layout of
// manifest m: on a delta-coded layout (see Engine.payloads).
func (o Options) payloads(m *partition.Manifest) bool {
	return m.BlockCodec() == graph.CodecDelta
}

// defaultPrefetchDepth and defaultPrefetchBytes size the I/O pipeline's
// read-ahead window when the options leave it unset.
const (
	defaultPrefetchDepth = 4
	defaultPrefetchBytes = 16 << 20
)

func (o Options) prefetchEnabled() bool { return o.PrefetchDepth >= 0 }

func (o Options) prefetchOptions() pipeline.Options {
	depth := o.PrefetchDepth
	if depth == 0 {
		depth = defaultPrefetchDepth
	}
	bytes := o.PrefetchBytes
	if bytes == 0 {
		bytes = defaultPrefetchBytes
	}
	return pipeline.Options{Depth: depth, Bytes: bytes}
}

// ForceFull and ForceOnDemand are convenience values for Options.ForceModel.
var (
	forceFullVal     = iosched.FullIO
	forceOnDemandVal = iosched.OnDemandIO
	// ForceFull pins the full I/O model (ablations b2/b3).
	ForceFull = &forceFullVal
	// ForceOnDemand pins the on-demand I/O model (ablation b4).
	ForceOnDemand = &forceOnDemandVal
)

// Result reports one engine run.
type Result struct {
	Algorithm  string
	Iterations int
	Converged  bool
	// Outputs holds prog.Output for every vertex.
	Outputs []float64

	// WallTime is host wall-clock for the whole run; ComputeTime is the
	// wall-clock spent in scatter/apply (the "vertex updating" share of
	// Figure 6); IO is the simulated device traffic and time, measured as a
	// delta over the device counters. When other runs share the device
	// concurrently (the job server), their interleaved traffic is included
	// in the delta — per-graph totals from Device.Stats are the exact
	// figures in that setting.
	WallTime    time.Duration
	ComputeTime time.Duration
	IO          storage.Snapshot
	// ApplyTime is the share of ComputeTime spent applying intervals
	// (Engine.applyInterval), the terms an FCIU or Lumos first pass fills in
	// its affine apply's loop included.
	ApplyTime time.Duration

	// SharedHits/SharedMisses count this run's full sub-block loads served
	// from / missed in the cross-job shared cache (Options.SharedBlocks);
	// both zero when no shared cache is configured. A hit costs the device
	// nothing, which is why a warm job reads strictly fewer blocks than a
	// cold one.
	SharedHits   int64
	SharedMisses int64

	// Codec is the layout's sub-block payload encoding ("raw" or "delta").
	// CompressRatio is decoded/on-disk edge payload bytes (1.0 for raw);
	// DecodeTime is the cumulative wall-clock spent decoding payloads —
	// under pipelined prefetch it runs on fetch workers, overlapped with
	// compute, so it is not an additive share of WallTime.
	Codec         string
	CompressRatio float64
	DecodeTime    time.Duration

	// Decisions is the per-iteration scheduler trace (Figure 10) and
	// SchedulerOverhead its cumulative cost (Figure 11). SchedAccuracy
	// summarises the calibration loop's prediction quality: observed
	// iterations, mean/max/last misprediction ratio and the final EWMA
	// correction factors.
	Decisions         []iosched.Decision
	SchedulerOverhead time.Duration
	SchedAccuracy     iosched.Accuracy

	// Buffer reports the per-run sub-block buffer's outcomes over whole-block
	// requests: every cell an FCIU pass reads, primaries and secondaries
	// (Figure 12), or, under Async, the blocks of streamed rows. BytesSaved is
	// on-disk bytes.
	Buffer buffer.Stats

	// Pipeline aggregates the I/O–compute pipeline outcomes across all
	// iterations: blocks and bytes prefetched, the wall-clock the consumer
	// stalled waiting on fetches, and the fetch work hidden behind
	// computation (overlap).
	Pipeline pipeline.Stats

	// IterStats traces each logical iteration: which path executed, the
	// active-vertex count entering it, and its I/O and compute shares.
	// This is the data series of the Figure 10 experiment.
	IterStats []IterStat

	// Resumed reports that the run restored a checkpoint; ResumedFrom is
	// the completed-iteration count it picked up at. Checkpoints counts
	// the checkpoint images this run took, one every Every steps; the newest
	// is on disk when the run returns. CheckpointWait is the wall-clock the
	// step loop spent blocked in the checkpoint writer's Put and Close:
	// waiting for the previous image's publish, and encoding each image.
	Resumed        bool
	ResumedFrom    int
	Checkpoints    int
	CheckpointWait time.Duration

	// SEM reports the blocks and bytes the run skipped because their source
	// interval held no active vertex, and the compressed cache tier's
	// hit/decode and effective-capacity accounting.
	SEM SEMStats

	// Async reports the asynchronous engine's outcomes; zero-valued (with
	// Enabled false) for BSP runs.
	Async AsyncStats
}

// AsyncStats reports one asynchronous run. Steps is the number of scheduler
// pops (each processes one source interval's live sub-blocks); for
// comparison with BSP, Result.Iterations holds the same count.
type AsyncStats struct {
	Enabled bool
	// Steps counts scheduler pops.
	Steps int
	// Rounds counts the sweeps of a popped row's own interval: one a wide
	// drain round and one for the value-order phase a drain ends in at its
	// first narrow round, whose pops Popped counts.
	Rounds int64
	Popped int64
	// BlocksScheduled counts sub-block sweeps across all steps — a drain's
	// diagonal once a round and once for its value-order phase, every other
	// cell once a step — the async analogue of BSP's iterations × P²
	// full-pass reads. It never depends on residency; how many of them took a
	// block through the per-run buffer does (Buffer.Hits + Buffer.Misses).
	BlocksScheduled int64
	// Reactivations counts vertices re-entering the frontier after having
	// been consumed at least once — the re-computation async trades for
	// skipped barriers.
	Reactivations int64
	// FinalActive counts the vertices still active when the run stopped: 0
	// when the frontier drained, above it only if the step bound was hit.
	FinalActive int
}

// IterStat describes one logical iteration of an engine run. Under async
// execution one IterStat is emitted per scheduler step, with Path "async".
type IterStat struct {
	Index int
	// Path is the executed update path: GraphSD's "sciu", "fciu-1",
	// "fciu-2", "full-single" or "async"; Lumos's "lumos-1",
	// "lumos-2" or "lumos-full"; HUS-Graph's "husgraph-on-demand" or
	// "husgraph-full".
	Path string
	// Active is the number of active vertices entering the iteration.
	Active int
	// Blocks is the number of sub-block sweeps the step made and
	// Reactivations the number of previously-consumed vertices it woke;
	// ActiveAfter counts the vertices active after the step. All three are
	// async-only (zero under BSP).
	Blocks        int
	Reactivations int64
	ActiveAfter   int
	// IO is the device traffic attributed to the iteration; IOTime and
	// ComputeTime are its simulated-disk and measured-CPU shares.
	// DecodeTime is the payload decode wall-clock attributed to the
	// iteration (overlapped with compute when prefetching).
	IO          storage.Snapshot
	IOTime      time.Duration
	ComputeTime time.Duration
	DecodeTime  time.Duration
	// Wall is the iteration's host wall-clock: its compute, its stall and
	// what neither accounts for.
	Wall time.Duration
	// Pipeline is the iteration's share of the I/O–compute pipeline
	// activity (stall and overlap wall-clock, blocks delivered).
	Pipeline pipeline.Stats
	// Predicted is the scheduler's corrected cost estimate for the executed
	// model and Mispredict the relative error against IOTime. Both stay zero
	// for unobserved iterations (fciu-2, which executes the second half of
	// the previous decision's pass).
	Predicted  time.Duration
	Mispredict float64
}

// Time returns the iteration's total execution time under the simulated
// disk.
func (s IterStat) Time() time.Duration { return s.IOTime + s.ComputeTime }

// ExecTime is the reported execution time of the run under the simulated
// disk: simulated I/O time plus measured compute time. This is the metric
// corresponding to the paper's execution-time figures.
func (r *Result) ExecTime() time.Duration {
	return r.IO.TotalTime() + r.ComputeTime
}

// IOTime returns the simulated disk time of the run.
func (r *Result) IOTime() time.Duration { return r.IO.TotalTime() }

// String summarises the result on one line.
func (r *Result) String() string {
	return fmt.Sprintf("%s: %d iters (converged=%t) exec=%v io=%v compute=%v traffic=%s",
		r.Algorithm, r.Iterations, r.Converged,
		r.ExecTime().Round(time.Microsecond), r.IOTime().Round(time.Microsecond),
		r.ComputeTime.Round(time.Microsecond), storage.FormatBytes(r.IO.TotalBytes()))
}
