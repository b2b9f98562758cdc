package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/graphsd/graphsd/internal/server"
)

// graphFlags collects repeatable -graph name=dir flags.
type graphFlags []server.GraphConfig

func (g *graphFlags) String() string {
	parts := make([]string, len(*g))
	for i, gc := range *g {
		parts[i] = gc.Name + "=" + gc.Dir
	}
	return strings.Join(parts, ",")
}

func (g *graphFlags) Set(v string) error {
	name, dir, ok := strings.Cut(v, "=")
	if !ok || name == "" || dir == "" {
		return fmt.Errorf("want name=layoutdir, got %q", v)
	}
	*g = append(*g, server.GraphConfig{Name: name, Dir: dir})
	return nil
}

// cmdServe boots the resident job server and blocks until SIGINT/SIGTERM,
// then shuts down gracefully: stop accepting connections, cancel running
// jobs (the engine stops at the next sub-block), and drain within 5s.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:8090", "address to listen on (host:port, port 0 picks a free port)")
	var graphs graphFlags
	fs.Var(&graphs, "graph", "graph to serve as name=layoutdir (repeatable)")
	workers := fs.Int("workers", 2, "jobs executed concurrently")
	queue := fs.Int("queue", 16, "admission queue depth")
	memBudget := fs.Int64("mem-budget", 0, "admission memory budget in bytes (0: unlimited)")
	cache := fs.Int64("cache", 0, "shared sub-block cache bytes per graph (0: half the edge data)")
	profile := fs.String("profile", "scaled-hdd", "disk model: hdd, scaled-hdd, ssd, pmem")
	retries := fs.Int("retries", 0, "retry transient read faults up to N times per graph device")
	compressed := fs.Bool("compressed-cache", false, "store the shared sub-block cache delta-coded (decode per hit, ~2x capacity)")
	async := fs.Bool("async", false, "run monotonic algorithms (prd, cc, sssp, bfs) through the asynchronous priority scheduler")
	asyncEps := fs.Float64("async-eps", 0, "residual stop threshold for -async runs (0: run to frontier drain)")
	journal := fs.String("journal", "", "durability directory: job journal (WAL) and per-job engine checkpoints; a restarted server replays it and resumes unfinished jobs")
	jobTimeout := fs.Duration("job-timeout", 0, "server-side running-time bound for jobs that carry no timeout of their own (0: none)")
	jobRetries := fs.Int("job-retries", 0, "re-run a job up to N extra attempts after transient storage failures")
	ckEvery := fs.Int("checkpoint-every", 0, "engine checkpoint interval in iterations for -journal jobs (0: every iteration)")
	ckKeep := fs.Int("checkpoint-keep", 0, "retain the last N terminal jobs' checkpoint directories instead of pruning them")
	mutable := fs.Bool("mutable", false, "accept edge mutations on every served graph (POST /v1/graphs/{name}/edges; WAL-backed, snapshot-isolated reads)")
	memtableBytes := fs.Int64("memtable-bytes", 0, "mutation memtable bytes before sealing a delta layer (0: 1 MiB)")
	compactThreshold := fs.Int("compact-threshold", 0, "sealed delta layers that trigger background compaction (0: 4)")
	tenantsFile := fs.String("tenants", "", "multi-tenant mode: JSON tenants file (names, bearer tokens, weights, quotas); see server.LoadTenantsFile")
	retainJobs := fs.Int("retain-jobs", 0, "retain at most N terminal jobs (older ones are evicted, results included; 0: keep all)")
	fs.Parse(args)
	if len(graphs) == 0 {
		return fmt.Errorf("serve: at least one -graph name=layoutdir is required")
	}
	if *asyncEps != 0 && !*async {
		return fmt.Errorf("serve: -async-eps requires -async")
	}
	prof, err := profileByName(*profile)
	if err != nil {
		return err
	}
	for i := range graphs {
		graphs[i].Profile = prof
		graphs[i].CacheBytes = *cache
		graphs[i].Retries = *retries
		graphs[i].Compressed = *compressed
		graphs[i].Async = *async
		graphs[i].AsyncEpsilon = *asyncEps
		graphs[i].Mutable = *mutable
		graphs[i].MemtableBytes = *memtableBytes
		graphs[i].CompactThreshold = *compactThreshold
	}

	cfg := server.Config{
		Graphs:          graphs,
		Workers:         *workers,
		QueueDepth:      *queue,
		MemBudget:       *memBudget,
		JournalDir:      *journal,
		JobTimeout:      *jobTimeout,
		JobRetries:      *jobRetries,
		CheckpointEvery: *ckEvery,
		CheckpointKeep:  *ckKeep,
		RetainJobs:      *retainJobs,
	}
	if *tenantsFile != "" {
		ts, err := server.LoadTenantsFile(*tenantsFile)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		cfg.Tenants = ts
		fmt.Printf("graphsd: multi-tenant mode: %d tenants\n", len(ts))
	}
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	if *journal != "" {
		// The e2e harness parses this line to assert recovery accounting.
		rec := s.Recovery()
		fmt.Printf("graphsd: journal replayed: %d records; jobs recovered=%d requeued=%d expired=%d lost=%d\n",
			s.Journal().Stats().ReplayRecords, rec.Recovered, rec.Requeued, rec.Expired, rec.Lost)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	// The e2e harness parses this line to find the bound port.
	fmt.Printf("graphsd: serving on %s (graphs: %s)\n", ln.Addr(), graphs.String())

	httpSrv := &http.Server{Handler: s.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard
	fmt.Println("graphsd: signal received, shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		fmt.Fprintf(os.Stderr, "graphsd: http shutdown: %v\n", err)
	}
	if err := s.Close(shCtx); err != nil {
		return fmt.Errorf("serve: draining jobs: %w", err)
	}
	fmt.Println("graphsd: shutdown complete")
	return nil
}
