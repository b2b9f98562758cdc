package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/iosched"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

const prIterations = 10

// batchSpec describes one of the four engine workloads: its inputs, its
// program and how the engine is configured over a layout.
type batchSpec struct {
	name   string
	graphs func(cfg config) []*graph.Graph
	prog   func() core.Program
	opts   func(in *batchInput) core.Options
	// sharedCache gives each input a raw shared cache of twice its decoded
	// size, warmed by one untimed run during set-up.
	sharedCache bool
	// pr marks PageRank: fixed iteration count instead of convergence,
	// tolerance instead of bit-exact comparison.
	pr bool
	// block is how many consecutive ops make one block; the number of
	// inputs divides it, so a block visits every input equally. A per-op
	// quantity is summarised as the median over blocks of the block's mean:
	// a cost that recurs every few ops (a garbage collection every second
	// PageRank run, lattices whose work differs by tens of percent taking
	// turns) lands in every block alike, where a plain median over ops
	// would flip between the modes; the median across blocks still sheds a
	// block the host disturbed.
	block int
}

// prBlock is the block size of the single-input PageRank workloads.
const prBlock = 4

// batchInput is one generated graph with its freshly built layout.
type batchInput struct {
	g      *graph.Graph
	dir    string
	layout *partition.Layout
	shared *buffer.Shared
}

// opSample is what one engine run leaves behind.
type opSample struct {
	input int
	edges int64 // of the input graph
	wall  time.Duration
	// host is the host factor beside the op: the mean of the probe's samples
	// just before and just after it (see hostspeed.go).
	host   float64
	io     storage.Snapshot
	allocs heapCounters // deltas over the op; live is the level after it
	res    *core.Result
	err    error
}

func prGraphs(cfg config) []*graph.Graph {
	return []*graph.Graph{rmat(cfg.Scale.RMATScale, cfg.Scale.EdgeFactor, false, cfg.Seed)}
}

// The async engine's step count swings by tens of percent from one weight
// draw to the next, so each run averages over many lattices of the seed, one
// block being one pass over all of them.
func latticeGraphs(cfg config) []*graph.Graph {
	gs := make([]*graph.Graph, cfg.Scale.LatticeInputs)
	for k := range gs {
		gs[k] = lattice(cfg.Scale.LatticeSide, cfg.Seed, uint64(k))
	}
	return gs
}

// engineThreads is the scatter/apply parallelism of the batch workloads. One:
// on the 2-vCPU host the benchmark was defined on, two scatter threads run a
// PageRank pass slower than one (0.29-0.39 s against 0.20 s) and flip between
// two speeds from op to op, so a second thread measures the host's scheduler.
// Prefetch and garbage collection still use the other CPU.
const engineThreads = 1

func pageRank() core.Program  { return &algorithms.PageRank{Iterations: prIterations} }
func ssspFrom0() core.Program { return &algorithms.SSSP{Source: 0} }

func runPRFit(cfg config) (*workloadReport, error) {
	return runBatch(cfg, batchSpec{name: "pr_fit", graphs: prGraphs, prog: pageRank, pr: true, block: prBlock, sharedCache: true,
		opts: func(in *batchInput) core.Options {
			return core.Options{Threads: engineThreads, SharedBlocks: in.shared}
		}})
}

func runPROOC(cfg config) (*workloadReport, error) {
	return runBatch(cfg, batchSpec{name: "pr_ooc", graphs: prGraphs, prog: pageRank, pr: true, block: prBlock,
		opts: func(in *batchInput) core.Options {
			return core.Options{Threads: engineThreads, BufferBytes: in.layout.Meta.EdgeBytesTotal() / 8}
		}})
}

func runSSSPBSP(cfg config) (*workloadReport, error) {
	return runBatch(cfg, batchSpec{name: "sssp_bsp", graphs: latticeGraphs, prog: ssspFrom0, block: cfg.Scale.LatticeInputs,
		opts: func(*batchInput) core.Options { return core.Options{Threads: engineThreads, DefaultBuffer: true} }})
}

func runSSSPAsync(cfg config) (*workloadReport, error) {
	return runBatch(cfg, batchSpec{name: "sssp_async", graphs: latticeGraphs, prog: ssspFrom0, block: cfg.Scale.LatticeInputs,
		opts: func(*batchInput) core.Options {
			return core.Options{Threads: engineThreads, DefaultBuffer: true, Async: true}
		}})
}

func (spec batchSpec) setup(cfg config) ([]*batchInput, error) {
	var ins []*batchInput
	for _, g := range spec.graphs(cfg) {
		dir, err := cfg.scratch(spec.name)
		if err != nil {
			return ins, err
		}
		in := &batchInput{g: g, dir: dir}
		ins = append(ins, in)
		if in.layout, err = buildLayout(dir, g); err != nil {
			return ins, err
		}
		if spec.sharedCache {
			in.shared = buffer.NewShared(2 * in.layout.Meta.EdgeBytesTotal())
			if _, err := core.RunContext(context.Background(), in.layout, spec.prog(), spec.opts(in)); err != nil {
				return ins, err
			}
		}
	}
	return ins, nil
}

func teardownBatch(ins []*batchInput) {
	for _, in := range ins {
		os.RemoveAll(in.dir)
	}
}

// pass runs ops round-robin over the inputs until end says stop. With a
// tracer, each op gets a root span and one child span per engine iteration.
func (spec batchSpec) pass(probe *hostProbe, ins []*batchInput, end passEnd, block int, tr *tracer) (samples []opSample, window time.Duration) {
	start := time.Now()
	var before float64 // the host factor sampled when the last op ended
	for k := 0; end.more(k, block); k++ {
		if k%spec.block == 0 {
			// Every block starts from a collected heap, so the collections
			// its ops trigger fall the same way in each block.
			runtime.GC()
		}
		if before == 0 {
			before = probe.sample()
		}
		in := ins[k%len(ins)]
		opts := spec.opts(in)
		root := tr.begin(-1, k, "op")
		if tr != nil {
			prev := time.Now()
			opts.OnIteration = func(st core.IterStat) {
				now := time.Now()
				tr.add(root, k, "core.iteration/"+st.Path, prev, now)
				prev = now
			}
		}
		io0, heap0 := in.layout.Dev.Stats(), readHeap()
		t0 := time.Now()
		res, err := core.RunContext(context.Background(), in.layout, spec.prog(), opts)
		wall := time.Since(t0)
		heap1 := readHeap()
		tr.end(root)
		after := probe.sample()
		samples = append(samples, opSample{input: k % len(ins), edges: int64(in.g.NumEdges()), wall: wall, res: res, err: err,
			host:   (before + after) / 2,
			io:     in.layout.Dev.Stats().Sub(io0),
			allocs: heapCounters{heap1.objects - heap0.objects, heap1.bytes - heap0.bytes, heap1.live}})
		before = after
	}
	return samples, time.Since(start)
}

// verify compares every op to the in-memory reference on its input's graph.
func (spec batchSpec) verify(rep *workloadReport, ins []*batchInput, samples []opSample) {
	refs := make([][]float64, len(ins))
	for k, in := range ins {
		refs[k], _ = core.RunReference(in.g, spec.prog(), 0)
	}
	for k, s := range samples {
		rep.Attempted++
		switch {
		case s.err != nil:
			rep.fail("op %d: %v", k, s.err)
		case spec.pr && s.res.Iterations != prIterations:
			rep.fail("op %d: ran %d iterations, want %d", k, s.res.Iterations, prIterations)
		case !spec.pr && !s.res.Converged:
			rep.fail("op %d: did not converge in %d iterations", k, s.res.Iterations)
		default:
			if v, ok := sameOutputs(s.res.Outputs, refs[s.input], !spec.pr); !ok {
				rep.fail("op %d: vertex %d differs from the reference", k, v)
			}
		}
		if s.res != nil {
			s.res.Outputs = nil // checked; a long run need not keep every vector
		}
	}
}

// blockMedian summarises a quantity of a run: its value over each block of
// consecutive ops, then the median across blocks (see batchSpec.block). A
// block holding a failed op is left out.
func blockMedian(samples []opSample, block int, f func([]opSample) float64) float64 {
	var vals []float64
	for lo := 0; lo+block <= len(samples); lo += block {
		b := samples[lo : lo+block]
		if !slices.ContainsFunc(b, func(s opSample) bool { return s.err != nil }) {
			vals = append(vals, f(b))
		}
	}
	return median(vals)
}

// blockMean is a block's value for a per-op quantity: its mean over the ops.
func blockMean(f func(opSample) float64) func([]opSample) float64 {
	return func(b []opSample) float64 {
		var sum float64
		for _, s := range b {
			sum += f(s)
		}
		return sum / float64(len(b))
	}
}

func runBatch(cfg config, spec batchSpec) (*workloadReport, error) {
	ins, setups, err := timedSetups(cfg, func() ([]*batchInput, error) { return spec.setup(cfg) }, teardownBatch)
	defer teardownBatch(ins)
	if err != nil {
		return nil, err
	}
	rep := &workloadReport{Name: spec.name, EndToEnd: metricSet{}, PerLayer: metricSet{}}
	m0 := ins[0].layout.Meta
	rep.Input = map[string]any{"inputs": len(ins), "vertices": m0.NumVertices, "edges": m0.NumEdges,
		"decoded_bytes": m0.EdgeBytesTotal(), "disk_bytes": m0.EdgeDiskBytesTotal()}

	// Untraced pass: every end-to-end number and every counter the engine
	// reports about itself comes from here.
	samples, window := spec.pass(cfg.probe, ins, cfg.pass(cfg.Seconds), spec.block, nil)
	spec.verify(rep, ins, samples)
	rep.Ops = len(samples)
	num := func(f func(opSample) float64) float64 { return blockMedian(samples, spec.block, blockMean(f)) }
	sec := func(f func(opSample) time.Duration) float64 {
		return num(func(s opSample) float64 { return f(s).Seconds() })
	}

	// Times are scaled to a quiet host (see hostspeed.go); the device part of
	// model_s is simulated and needs no scaling.
	scaled := func(d time.Duration, s opSample) float64 { return d.Seconds() / s.host }
	var walls []float64
	for _, s := range samples {
		if s.err == nil {
			walls = append(walls, scaled(s.wall, s))
		}
	}
	e := rep.EndToEnd
	e.set("setup_s", median(setups), len(setups))
	e.set("wall_s", num(func(s opSample) float64 { return scaled(s.wall, s) }), len(walls))
	e.set("model_s", num(func(s opSample) float64 { return s.res.IOTime().Seconds() + scaled(s.res.ComputeTime, s) }), len(walls))
	e.set("device_bytes", num(func(s opSample) float64 { return float64(s.io.TotalBytes()) }), len(walls))
	e.set("throughput_medges_s", blockMedian(samples, spec.block, func(b []opSample) float64 {
		var edges, seconds float64
		for _, s := range b {
			edges += float64(s.edges)
			seconds += scaled(s.wall, s)
		}
		return ratio(edges/1e6, seconds)
	}), len(walls))
	rep.WallTailPct, rep.WallTailS = tail(walls)

	p := rep.PerLayer
	ops := len(walls)
	p.set("storage.read_bytes", num(func(s opSample) float64 { return float64(s.io.ReadBytes()) }), ops)
	p.set("storage.read_ops", num(func(s opSample) float64 {
		return float64(s.io.Ops[storage.SeqRead] + s.io.Ops[storage.RandRead])
	}), ops)
	p.set("storage.rand_read_ops", num(func(s opSample) float64 { return float64(s.io.Ops[storage.RandRead]) }), ops)
	p.set("storage.write_bytes", num(func(s opSample) float64 { return float64(s.io.WriteBytes()) }), ops)
	p.set("storage.sim_s", sec(func(s opSample) time.Duration { return s.io.TotalTime() }), ops)
	p.set("storage.retries", num(func(s opSample) float64 { return float64(s.io.Retries) }), ops)
	engineMetrics(p, ops, spec.pr, num, sec)
	p.set("core.allocs_per_op", num(func(s opSample) float64 { return float64(s.allocs.objects) }), ops)
	p.set("core.alloc_bytes_per_op", num(func(s opSample) float64 { return float64(s.allocs.bytes) }), ops)
	var peak uint64
	for _, s := range samples {
		peak = max(peak, s.allocs.live)
	}
	p.set("core.heap_peak_bytes", float64(peak), len(samples))
	p.set("bench.ops", float64(len(samples)), 1)
	p.set("bench.window_s", window.Seconds(), 1)
	p.set("bench.host_factor", num(func(s opSample) float64 { return s.host }), ops)
	p.set("bench.raw_wall_s", sec(func(s opSample) time.Duration { return s.wall }), ops)

	// Traced pass: spans per op and iteration, then the layer replay.
	if cfg.traced() {
		// The traced pass may stop mid-block, so its ops are compared to the
		// untraced ops on the same inputs.
		tr := newTracer()
		end := cfg.pass(cfg.TracedSeconds)
		end.blocks *= spec.block
		traced, _ := spec.pass(cfg.probe, ins, end, 1, tr)
		spec.verify(rep, ins, traced)
		rep.TracedOps = len(traced)
		untraced := make([][]float64, len(ins))
		for _, s := range samples {
			untraced[s.input] = append(untraced[s.input], scaled(s.wall, s))
		}
		var tracedWall, untracedWall float64
		for _, s := range traced {
			tracedWall += scaled(s.wall, s)
			untracedWall += mean(untraced[s.input])
		}
		p.set("bench.trace_overhead_ratio", ratio(tracedWall, untracedWall), len(traced))
		var gaps []float64
		for _, sp := range tr.spans {
			if sp.Parent >= 0 {
				gaps = append(gaps, float64(sp.EndNS-sp.StartNS)/1e3)
			}
		}
		p.set("core.iter_wall_p50_us", median(gaps), len(gaps))
		var frontiers []int
		if len(traced) > 0 && traced[0].err == nil {
			for _, st := range traced[0].res.IterStats {
				frontiers = append(frontiers, st.Active)
			}
		}
		rc, err := replayGrid(tr, len(traced), ins[0].layout, frontiers)
		if err != nil {
			return nil, fmt.Errorf("%s: replay: %w", spec.name, err)
		}
		layerMetricsFromTrace(p, tr, rc)
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return nil, err
		}
		rep.TraceFile = cfg.tracePath(spec.name)
		if err := tr.write(rep.TraceFile, spec.name, cfg.Seed); err != nil {
			return nil, err
		}
	}
	rep.FailedRatio = ratio(float64(rep.Failed), float64(rep.Attempted))
	return rep, nil
}

// engineMetrics fills the per-layer metrics that come straight from
// core.Result. num and sec summarise a per-result quantity over the run's
// ops; the batch workloads and serve_mixed summarise differently.
func engineMetrics(p metricSet, ops int, pr bool,
	num func(func(opSample) float64) float64, sec func(func(opSample) time.Duration) float64) {
	p.set("graph.decode_s", sec(func(s opSample) time.Duration { return s.res.DecodeTime }), ops)
	p.set("buffer.hit_ratio", num(func(s opSample) float64 {
		return ratio(float64(s.res.Buffer.Hits), float64(s.res.Buffer.Hits+s.res.Buffer.Misses))
	}), ops)
	p.set("buffer.evictions", num(func(s opSample) float64 { return float64(s.res.Buffer.Evictions) }), ops)
	p.set("buffer.bytes_saved", num(func(s opSample) float64 { return float64(s.res.Buffer.BytesSaved) }), ops)
	p.set("buffer.shared_hit_ratio", num(func(s opSample) float64 {
		return ratio(float64(s.res.SharedHits), float64(s.res.SharedHits+s.res.SharedMisses))
	}), ops)
	p.set("buffer.shared_compressed_hits", num(func(s opSample) float64 { return float64(s.res.SEM.CompressedHits) }), ops)
	p.set("pipeline.stall_s", sec(func(s opSample) time.Duration { return s.res.Pipeline.Stall }), ops)
	p.set("pipeline.overlap_s", sec(func(s opSample) time.Duration { return s.res.Pipeline.Overlap }), ops)
	p.set("pipeline.blocks_prefetched", num(func(s opSample) float64 { return float64(s.res.Pipeline.Blocks) }), ops)
	p.set("pipeline.skipped_blocks", num(func(s opSample) float64 { return float64(s.res.Pipeline.Skipped) }), ops)
	p.set("pipeline.fallbacks", num(func(s opSample) float64 { return float64(s.res.Pipeline.Fallbacks) }), ops)
	p.set("iosched.overhead_s", sec(func(s opSample) time.Duration { return s.res.SchedulerOverhead }), ops)
	p.set("iosched.mispredict_mean", num(func(s opSample) float64 { return s.res.SchedAccuracy.MeanMispredict }), ops)
	p.set("iosched.ondemand_iter_share", num(func(s opSample) float64 {
		var onDemand int
		for _, d := range s.res.Decisions {
			if d.Model == iosched.OnDemandIO {
				onDemand++
			}
		}
		return ratio(float64(onDemand), float64(len(s.res.Decisions)))
	}), ops)
	p.set("core.compute_s", sec(func(s opSample) time.Duration { return s.res.ComputeTime }), ops)
	if pr {
		// Only PageRank touches every edge every iteration, which is what
		// makes compute time per edge a rate and not an artefact.
		p.set("core.compute_ns_per_edge", num(func(s opSample) float64 {
			return ratio(float64(s.res.ComputeTime.Nanoseconds()), float64(s.res.Iterations)*float64(s.edges))
		}), ops)
	}
	p.set("core.overhead_s", sec(func(s opSample) time.Duration {
		return max(0, s.res.WallTime-s.res.ComputeTime-s.res.Pipeline.Stall)
	}), ops)
	p.set("core.iterations", num(func(s opSample) float64 { return float64(s.res.Iterations) }), ops)
	p.set("core.sem_blocks_skipped", num(func(s opSample) float64 { return float64(s.res.SEM.BlocksSkipped) }), ops)
	p.set("core.async_steps", num(func(s opSample) float64 { return float64(s.res.Async.Steps) }), ops)
	p.set("core.async_blocks_scheduled", num(func(s opSample) float64 { return float64(s.res.Async.BlocksScheduled) }), ops)
	p.set("core.async_reactivations", num(func(s opSample) float64 { return float64(s.res.Async.Reactivations) }), ops)
}
