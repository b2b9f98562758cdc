// Command graphsd is the CLI front-end of the GraphSD out-of-core graph
// processing system.
//
// Subcommands:
//
//	graphsd preprocess -graph g.bin -layout DIR [-p N] [-system graphsd|husgraph|lumos] [-external]
//	graphsd run        -layout DIR -algorithm pr|prd|cc|sssp|bfs|widestpath|reach [-source V] [flags]
//	graphsd compare    -graph g.bin -algorithm bfs [-p N]   (all systems, one table)
//	graphsd verify     -graph g.bin -layout DIR -algorithm cc (engine vs in-memory oracle)
//	graphsd stats      -layout DIR                          (layout inventory)
//	graphsd trace      -file run.trace                      (I/O trace summary)
//	graphsd measure    -dir DIR                             (fio-like profile probe)
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/delta"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/iotrace"
	"github.com/graphsd/graphsd/internal/metrics"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "preprocess":
		err = cmdPreprocess(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "ingest":
		err = cmdIngest(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "measure":
		err = cmdMeasure(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "graphsd: unknown subcommand %q\n\n", os.Args[1])
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphsd: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: graphsd <subcommand> [flags]

subcommands:
  preprocess  partition a graph into an on-disk layout
  run         execute an algorithm over a preprocessed layout
  serve       run the resident job server with an HTTP API
  ingest      stream edge mutations into a running 'serve -mutable' server
  compare     run one algorithm under every system and print a comparison
  verify      check an out-of-core run against the in-memory BSP oracle
  stats       describe a preprocessed layout
  trace       summarize a JSONL I/O trace produced by 'run -iotrace'
  measure     probe the local filesystem's bandwidth profile

run 'graphsd <subcommand> -h' for flags.`)
	os.Exit(2)
}

func profileByName(name string) (storage.Profile, error) {
	switch name {
	case "hdd":
		return storage.HDD, nil
	case "scaled-hdd":
		return storage.ScaledHDD, nil
	case "ssd":
		return storage.SSD, nil
	case "pmem":
		return storage.PMem, nil
	default:
		return storage.Profile{}, fmt.Errorf("unknown profile %q (have hdd, scaled-hdd, ssd, pmem)", name)
	}
}

func loadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Try binary first; fall back to text edge list.
	if g, err := graph.ReadBinary(f); err == nil {
		return g, nil
	}
	if _, err := f.Seek(0, 0); err != nil {
		return nil, err
	}
	return graph.ReadEdgeList(f, false)
}

// openLayout opens the preprocessed layout in dir on a device of the given
// profile; the device is the layout's Dev.
func openLayout(dir string, prof storage.Profile) (*partition.Layout, error) {
	dev, err := storage.OpenDevice(dir, prof)
	if err != nil {
		return nil, err
	}
	return partition.Load(dev)
}

func cmdPreprocess(args []string) error {
	fs := flag.NewFlagSet("preprocess", flag.ExitOnError)
	graphPath := fs.String("graph", "", "input graph (binary or text edge list)")
	layoutDir := fs.String("layout", "", "output layout directory")
	p := fs.Int("p", 0, "number of vertex intervals (0: auto from -membudget)")
	memBudget := fs.Int64("membudget", 0, "memory budget in bytes (default: 5% of edge data, as in the paper)")
	system := fs.String("system", "graphsd", "layout format: graphsd, husgraph, lumos")
	profile := fs.String("profile", "scaled-hdd", "disk model: hdd, scaled-hdd, ssd, pmem")
	external := fs.Bool("external", false, "use the bounded-memory external preprocessor (graphsd layouts only)")
	codecName := fs.String("codec", "raw", "sub-block payload encoding: raw or delta (graphsd layouts only)")
	fs.Parse(args)
	if *graphPath == "" || *layoutDir == "" {
		return fmt.Errorf("preprocess: -graph and -layout are required")
	}
	prof, err := profileByName(*profile)
	if err != nil {
		return err
	}
	g, err := loadGraph(*graphPath)
	if err != nil {
		return fmt.Errorf("loading graph: %w", err)
	}
	dev, err := storage.OpenDevice(*layoutDir, prof)
	if err != nil {
		return err
	}
	intervals := *p
	if intervals == 0 {
		budget := *memBudget
		if budget == 0 {
			budget = g.Bytes() / 20
		}
		intervals = partition.ChooseP(g.Bytes(), budget, 64)
	}
	codec, err := graph.ParseCodec(*codecName)
	if err != nil {
		return err
	}
	sys, err := core.SystemByName(*system)
	if err != nil {
		return err
	}
	if *external {
		if sys.Name != "graphsd" {
			return fmt.Errorf("-external is only implemented for the graphsd layout")
		}
		sys.Build = func(dev *storage.Device, g *graph.Graph, p int, opts ...partition.BuildOption) (*partition.Layout, error) {
			return partition.BuildExternal(dev, graph.NewSliceStream(g.Edges), g.NumVertices, g.Weighted, p, opts...)
		}
	}
	start := time.Now()
	l, err := sys.Build(dev, g, intervals, partition.WithCodec(codec))
	if err != nil {
		return err
	}
	s := dev.Stats()
	fmt.Printf("layout %s: system=%s P=%d vertices=%d edges=%d codec=%s\n",
		*layoutDir, l.Meta.System, l.Meta.P, l.Meta.NumVertices, l.Meta.NumEdges, l.Meta.BlockCodec())
	if disk := l.Meta.EdgeDiskBytesTotal(); disk > 0 && disk < l.Meta.EdgeBytesTotal() {
		fmt.Printf("compression: %s decoded -> %s on disk (%.2fx)\n",
			storage.FormatBytes(l.Meta.EdgeBytesTotal()), storage.FormatBytes(disk),
			float64(l.Meta.EdgeBytesTotal())/float64(disk))
	}
	fmt.Printf("preprocessing: wall=%v cpu=%v written=%s simulated-io=%v\n",
		time.Since(start).Round(time.Millisecond), l.PrepCPU.Round(time.Millisecond),
		storage.FormatBytes(s.WriteBytes()), s.TotalTime().Round(time.Millisecond))
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	layoutDir := fs.String("layout", "", "preprocessed layout directory")
	alg := fs.String("algorithm", "", "algorithm: pr, prd, cc, sssp, bfs")
	source := fs.Uint("source", 0, "source vertex for sssp/bfs")
	iters := fs.Int("iterations", 0, "override the iteration bound")
	profile := fs.String("profile", "scaled-hdd", "disk model: hdd, scaled-hdd, ssd, pmem")
	noCross := fs.Bool("no-cross-iteration", false, "disable cross-iteration updates (ablation b1; not with -async)")
	force := fs.String("force-model", "", "pin the I/O model: full (b3) or on-demand (b4); not with -async")
	bufBytes := fs.Int64("buffer", -1, "per-run sub-block buffer bytes: FCIU's secondary sub-blocks, or with -async the hottest rows' blocks (-1: auto, 0: disabled)")
	top := fs.Int("top", 10, "print the top-N vertices by output value")
	trace := fs.Bool("trace", false, "print the per-iteration scheduler trace")
	tracePath := fs.String("iotrace", "", "record a JSONL I/O trace to this file")
	prefetchDepth := fs.Int("prefetch-depth", 0, "I/O pipeline read-ahead depth (0: default, negative: disable)")
	prefetchBytes := fs.Int64("prefetch-bytes", 0, "I/O pipeline window byte budget (0: default)")
	ckDir := fs.String("checkpoint", "", "checkpoint directory (enables crash-safe iteration checkpoints)")
	ckEvery := fs.Int("checkpoint-every", 4, "iterations between checkpoints (with -checkpoint)")
	resume := fs.Bool("resume", false, "resume from the checkpoint in -checkpoint, if present")
	retries := fs.Int("retries", 0, "retry transient read faults up to N times with exponential backoff")
	async := fs.Bool("async", false, "asynchronous execution: priority scheduling over sub-block rows (monotonic algorithms: prd, cc, sssp, bfs)")
	asyncEps := fs.Float64("async-eps", 0, "stop an -async run once total pending residual falls to this (0: run to frontier drain)")
	asyncSeed := fs.Uint64("async-seed", 0, "tie-break seed for the -async scheduler (fixed seed: reproducible schedule)")
	progress := fs.Int("progress", 0, "print a one-line frontier/residual summary every N iterations (0: off)")
	fs.Parse(args)
	if *layoutDir == "" || *alg == "" {
		return fmt.Errorf("run: -layout and -algorithm are required")
	}
	prof, err := profileByName(*profile)
	if err != nil {
		return err
	}
	l, err := openLayout(*layoutDir, prof)
	if err != nil {
		return err
	}
	dev := l.Dev
	prog, err := algorithms.ByName(*alg, graph.VertexID(*source))
	if err != nil {
		return err
	}
	if *resume && *ckDir == "" {
		return fmt.Errorf("run: -resume requires -checkpoint")
	}
	if *ckDir != "" && *ckEvery <= 0 {
		return fmt.Errorf("run: -checkpoint-every must be positive")
	}
	if *retries > 0 {
		pol := storage.DefaultRetryPolicy
		pol.MaxRetries = *retries
		dev.SetRetryPolicy(pol)
	}

	var rec *iotrace.Recorder
	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			return fmt.Errorf("creating trace file: %w", err)
		}
		rec = iotrace.NewRecorder(tf)
		rec.Attach(dev)
		defer func() {
			dev.SetTracer(nil)
			if err := rec.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "graphsd: flushing trace: %v\n", err)
			}
			tf.Close()
			fmt.Printf("I/O trace (%d events) written to %s\n", rec.Events(), *tracePath)
		}()
	}

	opts := core.Options{MaxIterations: *iters}
	switch {
	case *bufBytes < 0:
		opts.DefaultBuffer = true
	default:
		opts.BufferBytes = *bufBytes
	}
	opts.DisableCrossIteration = *noCross
	opts.Async = *async
	opts.AsyncEpsilon = *asyncEps
	opts.AsyncSeed = *asyncSeed
	opts.PrefetchDepth = *prefetchDepth
	opts.PrefetchBytes = *prefetchBytes
	if (*asyncEps != 0 || *asyncSeed != 0) && !*async {
		return fmt.Errorf("run: -async-eps and -async-seed require -async")
	}
	if *async && (*force != "" || *noCross) {
		return fmt.Errorf("run: -force-model and -no-cross-iteration have no effect under -async")
	}
	if *progress > 0 {
		every := *progress
		start := time.Now()
		opts.OnIteration = func(st core.IterStat) {
			if (st.Index+1)%every != 0 {
				return
			}
			line := fmt.Sprintf("[%7.1fs] iter %4d path=%-9s active=%d", time.Since(start).Seconds(), st.Index, st.Path, st.Active)
			if *async {
				line += fmt.Sprintf(" residual=%.3e blocks=%d", st.Residual, st.Blocks)
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}
	if *ckDir != "" {
		opts.Checkpoint = core.CheckpointOptions{Every: *ckEvery, Dir: *ckDir, Resume: *resume}
	}
	switch *force {
	case "":
	case "full":
		opts.ForceModel = core.ForceFull
	case "on-demand":
		opts.ForceModel = core.ForceOnDemand
	default:
		return fmt.Errorf("unknown -force-model %q", *force)
	}

	// Ctrl-C cancels the engine cleanly between sub-blocks, so the
	// deferred trace-file flush above still runs and the trace is whole.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	res, err := core.RunContext(ctx, l, prog, opts)
	if err != nil {
		return err
	}

	fmt.Println(res)
	fmt.Printf("I/O: %s\n", res.IO)
	if res.Codec != "" && res.Codec != "raw" {
		fmt.Printf("codec: %s, compression=%.2fx, decode=%v (overlapped with compute)\n",
			res.Codec, res.CompressRatio, res.DecodeTime.Round(time.Microsecond))
	}
	if pl := res.Pipeline; pl.Blocks > 0 {
		fmt.Printf("pipeline: %d blocks (%s): %d prefetched, %d loaded inline, stall=%v overlap=%v\n",
			pl.Blocks, storage.FormatBytes(pl.Bytes), pl.Blocks-pl.Inline, pl.Inline,
			pl.Stall.Round(time.Microsecond), pl.Overlap.Round(time.Microsecond))
	}
	if res.Resumed {
		fmt.Printf("resumed from checkpoint at iteration %d\n", res.ResumedFrom)
	}
	if res.Checkpoints > 0 {
		fmt.Printf("checkpoints: %d taken, newest in %s, step loop waited %v\n",
			res.Checkpoints, *ckDir, res.CheckpointWait.Round(time.Microsecond))
	}
	if res.IO.Retries > 0 || res.Pipeline.Fallbacks > 0 {
		fmt.Printf("fault recovery: %d retried reads, %d pipeline fallbacks to synchronous loads\n",
			res.IO.Retries, res.Pipeline.Fallbacks)
	}
	if s := res.SEM; s.BlocksSkipped > 0 {
		fmt.Printf("skipped: %d dead sub-blocks (%s never read)\n", s.BlocksSkipped, storage.FormatBytes(s.BytesSkipped))
	}
	if s := res.SEM; s.CompressedBytes > 0 || s.CompressedHits > 0 {
		fmt.Printf("sem: compressed tier %d hits effective-capacity=%.2fx\n",
			s.CompressedHits, s.EffectiveCapacityRatio())
	}
	if a := res.Async; a.Enabled {
		fmt.Printf("async: %d steps (%d selective), %d rounds, %d sub-blocks scheduled (%d served from memory), %d reactivations, final residual %.3e\n",
			a.Steps, a.SelectiveSteps, a.Rounds, a.BlocksScheduled, res.Buffer.Hits, a.Reactivations, a.FinalResidual)
	}
	if acc := res.SchedAccuracy; acc.Observed > 0 {
		fmt.Printf("scheduler accuracy: %d observed iterations, mispredict mean %.1f%% last %.1f%%, corrections full=%.2f on-demand=%.2f\n",
			acc.Observed, 100*acc.MeanMispredict, 100*acc.LastMispredict, acc.CorrFull, acc.CorrOnDemand)
	}
	if rec != nil {
		// Fold the calibration loop's per-iteration accuracy into the trace
		// as synthetic "sched" events, so one file carries both the device
		// operations and the predictions made against them.
		for _, st := range res.IterStats {
			if st.Predicted > 0 {
				model := "full"
				if st.Path == "sciu" {
					model = "on-demand"
				}
				rec.RecordSched(st.Index, model, st.Predicted, st.IOTime, st.Mispredict)
			}
		}
	}
	if *trace {
		tr := metrics.NewTable("per-iteration trace", "iter", "path", "active", "bytes", "skipped", "wall", "io time", "compute", "decode", "stall", "overlap", "predicted", "mispredict")
		for _, st := range res.IterStats {
			pred, mis := "-", "-"
			if st.Predicted > 0 {
				pred = metrics.Dur(st.Predicted)
				mis = fmt.Sprintf("%.1f%%", 100*st.Mispredict)
			}
			skipped := "-"
			if st.Pipeline.Skipped > 0 {
				skipped = fmt.Sprintf("%d (%s)", st.Pipeline.Skipped, storage.FormatBytes(st.Pipeline.SkippedBytes))
			}
			tr.AddRow(fmt.Sprint(st.Index), st.Path, fmt.Sprint(st.Active),
				storage.FormatBytes(st.IO.TotalBytes()), skipped, metrics.Dur(st.Wall), metrics.Dur(st.IOTime), metrics.Dur(st.ComputeTime),
				metrics.DurZ(st.DecodeTime), metrics.DurZ(st.Pipeline.Stall), metrics.DurZ(st.Pipeline.Overlap),
				pred, mis)
		}
		if err := tr.Render(os.Stdout); err != nil {
			return err
		}
	}
	printTop(res.Outputs, *top)
	return nil
}

func printTop(values []float64, n int) {
	if n <= 0 {
		return
	}
	type vv struct {
		v   int
		val float64
	}
	all := make([]vv, len(values))
	for i, v := range values {
		all[i] = vv{i, v}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].val > all[b].val })
	if n > len(all) {
		n = len(all)
	}
	fmt.Printf("top %d vertices by output value:\n", n)
	for _, e := range all[:n] {
		fmt.Printf("  v%-8d %g\n", e.v, e.val)
	}
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	graphPath := fs.String("graph", "", "input graph (binary or text edge list)")
	alg := fs.String("algorithm", "bfs", "algorithm: pr, prd, cc, sssp, bfs")
	source := fs.Uint("source", 0, "source vertex for sssp/bfs")
	p := fs.Int("p", 8, "number of vertex intervals")
	profile := fs.String("profile", "scaled-hdd", "disk model")
	workdir := fs.String("workdir", "", "scratch dir (default: temp)")
	fs.Parse(args)
	if *graphPath == "" {
		return fmt.Errorf("compare: -graph is required")
	}
	prof, err := profileByName(*profile)
	if err != nil {
		return err
	}
	g, err := loadGraph(*graphPath)
	if err != nil {
		return err
	}
	dir := *workdir
	if dir == "" {
		dir, err = os.MkdirTemp("", "graphsd-compare-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}

	mkProg := func() (core.Program, error) { return algorithms.ByName(*alg, graph.VertexID(*source)) }
	probe, err := mkProg()
	if err != nil {
		return err
	}
	if probe.Weighted() && !g.Weighted {
		return fmt.Errorf("%s needs a weighted graph (graphgen -weighted)", *alg)
	}

	t := metrics.NewTable(fmt.Sprintf("system comparison: %s on %s (P=%d)", *alg, *graphPath, *p),
		"system", "exec time", "io time", "compute", "traffic", "iterations")
	for _, sys := range core.Systems() {
		dev, err := storage.OpenDevice(dir+"/"+sys.Name, prof)
		if err != nil {
			return err
		}
		l, err := sys.Build(dev, g, *p)
		if err != nil {
			return err
		}
		prog, _ := mkProg()
		res, err := sys.Run(context.Background(), l, prog, core.Options{DefaultBuffer: true})
		if err != nil {
			return err
		}
		t.AddRow(sys.Name, metrics.Dur(res.ExecTime()), metrics.Dur(res.IOTime()),
			metrics.Dur(res.ComputeTime), storage.FormatBytes(res.IO.TotalBytes()),
			fmt.Sprint(res.Iterations))
	}
	return t.Render(os.Stdout)
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	graphPath := fs.String("graph", "", "original input graph (binary or text edge list)")
	layoutDir := fs.String("layout", "", "preprocessed layout (any system)")
	alg := fs.String("algorithm", "bfs", "algorithm: pr, prd, cc, sssp, bfs, widestpath, reach")
	source := fs.Uint("source", 0, "source vertex for traversal algorithms")
	tol := fs.Float64("tolerance", 1e-9, "relative tolerance for sum-based algorithms")
	fs.Parse(args)
	if *graphPath == "" || *layoutDir == "" {
		return fmt.Errorf("verify: -graph and -layout are required")
	}
	g, err := loadGraph(*graphPath)
	if err != nil {
		return err
	}
	l, err := openLayout(*layoutDir, storage.ScaledHDD)
	if err != nil {
		return err
	}
	if l.Meta.NumVertices != g.NumVertices || int(l.Meta.NumEdges) != g.NumEdges() {
		return fmt.Errorf("layout (%d vertices, %d edges) does not match graph (%d, %d)",
			l.Meta.NumVertices, l.Meta.NumEdges, g.NumVertices, g.NumEdges())
	}
	prog, err := algorithms.ByName(*alg, graph.VertexID(*source))
	if err != nil {
		return err
	}
	oracleProg, _ := algorithms.ByName(*alg, graph.VertexID(*source)) // the name just resolved
	res, err := core.Run(l, prog, core.Options{DefaultBuffer: true})
	if err != nil {
		return err
	}
	want, iters := core.RunReference(g, oracleProg, 0)
	mismatches := 0
	worst := 0.0
	for v := range want {
		d := relDiff(res.Outputs[v], want[v])
		if d > worst {
			worst = d
		}
		if d > *tol {
			mismatches++
			if mismatches <= 5 {
				fmt.Printf("MISMATCH vertex %d: engine %v, oracle %v\n", v, res.Outputs[v], want[v])
			}
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("%d/%d vertices differ beyond tolerance %g", mismatches, len(want), *tol)
	}
	fmt.Printf("OK: %s over %d vertices matches the in-memory oracle (engine %d iters, oracle %d; worst rel-diff %.2e)\n",
		*alg, len(want), res.Iterations, iters, worst)
	return nil
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return 0
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return d
	}
	return d / m
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	layoutDir := fs.String("layout", "", "layout directory")
	fs.Parse(args)
	if *layoutDir == "" {
		return fmt.Errorf("stats: -layout is required")
	}
	l, err := openLayout(*layoutDir, storage.ScaledHDD)
	if err != nil {
		return err
	}
	m := l.Meta
	fmt.Printf("system:    %s\nvertices:  %d\nedges:     %d\nP:         %d\nweighted:  %t\nedge data: %s\n",
		m.System, m.NumVertices, m.NumEdges, m.P, m.Weighted, storage.FormatBytes(m.EdgeBytesTotal()))
	fmt.Printf("codec:     %s\n", m.BlockCodec())
	if disk := m.EdgeDiskBytesTotal(); disk != m.EdgeBytesTotal() {
		fmt.Printf("on disk:   %s (%.2fx compression)\n", storage.FormatBytes(disk),
			float64(m.EdgeBytesTotal())/float64(disk))
	}
	if m.System == "graphsd" || m.System == "lumos" {
		var diag, upper, lower int64
		for i := 0; i < m.P; i++ {
			for j := 0; j < m.P; j++ {
				switch {
				case i == j:
					diag += m.SubBlockEdges(i, j)
				case i < j:
					upper += m.SubBlockEdges(i, j)
				default:
					lower += m.SubBlockEdges(i, j)
				}
			}
		}
		fmt.Printf("grid:      diagonal %d edges, upper %d, lower (secondary) %d\n", diag, upper, lower)
	}
	// Mutable-graph state: layout generation, sealed delta layers awaiting
	// compaction, and unsealed mutations still in the WAL (what a restarted
	// server would replay into its memtable).
	if m.System == "graphsd" && (m.Generation > 0 || m.MutationsTotal > 0 || len(m.DeltaLayers) > 0) {
		fmt.Printf("generation: %d (compactions over the layout's lifetime)\n", m.Generation)
		fmt.Printf("delta:      %d sealed layers, %s pending compaction\n",
			len(m.DeltaLayers), storage.FormatBytes(m.DeltaDiskBytes()))
		// The manifest's MutationsTotal covers sealed mutations only; the
		// store's view folds in whatever the mutation WAL replays into the
		// memtable.
		if s, err := delta.Open(l.Dev, delta.Options{}); err == nil {
			st := s.Stats()
			fmt.Printf("mutations:  %d applied over the layout's lifetime\n", st.MutationsTotal)
			fmt.Printf("memtable:   %d keys, ~%s unsealed (replayed from the mutation WAL)\n",
				st.MemtableKeys, storage.FormatBytes(st.MemtableBytes))
			s.Close()
		} else {
			fmt.Printf("mutations:  %d sealed (mutation WAL unavailable: %v)\n", m.MutationsTotal, err)
		}
	}
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	file := fs.String("file", "", "JSONL trace file from 'run -iotrace'")
	top := fs.Int("top", 10, "show the N busiest files")
	fs.Parse(args)
	if *file == "" {
		return fmt.Errorf("trace: -file is required")
	}
	f, err := os.Open(*file)
	if err != nil {
		return err
	}
	defer f.Close()
	sum, err := iotrace.Analyze(f, *top)
	if err != nil {
		return err
	}
	return sum.Render(os.Stdout)
}

func cmdMeasure(args []string) error {
	fs := flag.NewFlagSet("measure", flag.ExitOnError)
	dir := fs.String("dir", ".", "directory to probe")
	size := fs.Int("size", 64<<20, "sample size in bytes")
	fs.Parse(args)
	p, err := storage.MeasureProfile(*dir, *size)
	if err != nil {
		return err
	}
	fmt.Printf("measured profile for %s:\n", *dir)
	fmt.Printf("  seq read:   %.1f MB/s\n  seq write:  %.1f MB/s\n  rand read:  %.1f MB/s\n  seek:       %v\n",
		p.SeqReadBps/1e6, p.SeqWriteBps/1e6, p.RandReadBps/1e6, p.SeekLatency)
	return nil
}
