package server

import (
	"net/http"
	"time"

	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/delta"
	"github.com/graphsd/graphsd/internal/jobs"
	"github.com/graphsd/graphsd/internal/metrics"
	"github.com/graphsd/graphsd/internal/storage"
)

// scrape is everything one /metrics request reads. Each source — the
// scheduler, the journal, and per graph the device, the delta store, the
// shared cache and the folded aggregates — is read once, under its own lock,
// so the series drawn from one source describe one instant of it.
type scrape struct {
	uptime  float64
	sched   jobs.Snapshot
	journal jobs.JournalStats // zero without -journal; its families are then omitted
}

// graphScrape is one graph's share of a scrape.
type graphScrape struct {
	name   string
	dev    storage.Snapshot
	store  delta.Stats // zero for a read-only graph
	shared buffer.SharedStats
	used   int64 // bytes resident in the shared cache, of cap
	cap    int64
	agg    aggregates
}

// series is one sample line of a family: the labels that follow the item's
// own (graph=, tenant=) and the value, integer or float.
type series[T any] struct {
	labels []metrics.Label
	i      func(T) int64 // exactly one of i and f is set
	f      func(T) float64
}

// family is one row of the exposition table: a `# HELP`/`# TYPE` pair and the
// series each item contributes under it.
type family[T any] struct {
	name, typ, help string
	series          []series[T]
}

func ints[T any](v func(T) int64) []series[T]     { return []series[T]{{i: v}} }
func floats[T any](v func(T) float64) []series[T] { return []series[T]{{f: v}} }

// emit writes fams in table order: per family the header, then every item's
// series, the item's own label first.
func emit[T any](p *metrics.Prom, fams []family[T], items []T, own func(T) []metrics.Label) {
	for _, fam := range fams {
		p.Header(fam.name, fam.typ, fam.help)
		for _, it := range items {
			for _, s := range fam.series {
				labels := append(own(it), s.labels...)
				if s.f != nil {
					p.Val(fam.name, s.f(it), labels...)
				} else {
					p.Int(fam.name, s.i(it), labels...)
				}
			}
		}
	}
}

// Series under a second label: a job state, a device access class, an I/O model.
func byState(st jobs.State, counts func(*jobs.Snapshot) *[jobs.Expired + 1]int64) series[*scrape] {
	return series[*scrape]{labels: []metrics.Label{metrics.L("state", st.String())}, i: func(sc *scrape) int64 { return counts(&sc.sched)[st] }}
}

func finished(s *jobs.Snapshot) *[jobs.Expired + 1]int64 { return &s.Finished }
func current(s *jobs.Snapshot) *[jobs.Expired + 1]int64  { return &s.Current }

func byClass(c storage.Class, label string) series[*graphScrape] {
	return series[*graphScrape]{labels: []metrics.Label{metrics.L("class", label)}, i: func(g *graphScrape) int64 { return g.dev.Ops[c] }}
}

func byModel(label string, v func(*aggregates) float64) series[*graphScrape] {
	return series[*graphScrape]{labels: []metrics.Label{metrics.L("model", label)}, f: func(g *graphScrape) float64 { return v(&g.agg) }}
}

// The exposition, in the order it is written. Scheduler counters and gauges
// first; journalFamilies (all zero, so omitted, without -journal) sit between
// the recovery and the retention rows.
var (
	schedFamilies = []family[*scrape]{
		{"graphsd_uptime_seconds", "gauge", "Seconds since the server started.", floats(func(sc *scrape) float64 { return sc.uptime })},
		{"graphsd_jobs_total", "counter", "Jobs finished, by terminal state.",
			[]series[*scrape]{byState(jobs.Done, finished), byState(jobs.Failed, finished), byState(jobs.Cancelled, finished), byState(jobs.Expired, finished)}},
		// Durability: what the startup journal replay did.
		{"graphsd_jobs_recovered_total", "counter", "Journaled jobs restored already-terminal at startup replay.", ints(func(sc *scrape) int64 { return sc.sched.Recovery.Recovered })},
		{"graphsd_jobs_requeued_total", "counter", "Journaled jobs re-queued for execution at startup replay (Resumable of them hold an engine checkpoint).", ints(func(sc *scrape) int64 { return sc.sched.Recovery.Requeued })},
		{"graphsd_jobs_lost_total", "counter", "Journaled jobs the replay could neither finish nor re-queue. Must stay 0.", ints(func(sc *scrape) int64 { return sc.sched.Recovery.Lost })},
		{"graphsd_jobs_expired_deadline_total", "counter", "Jobs expired past their Request.Deadline (at replay or at runtime).", ints(func(sc *scrape) int64 { return sc.sched.ExpiredDeadline })},
		{"graphsd_jobs_retried_total", "counter", "Job-level retry attempts after transient storage failures.", ints(func(sc *scrape) int64 { return sc.sched.Retried })},
	}
	journalFamilies = []family[*scrape]{
		{"graphsd_journal_records_total", "counter", "Records appended to the job journal by this process.", ints(func(sc *scrape) int64 { return sc.journal.Records })},
		{"graphsd_journal_bytes_total", "counter", "Bytes appended to the job journal by this process.", ints(func(sc *scrape) int64 { return sc.journal.Bytes })},
		{"graphsd_journal_segments", "gauge", "Journal segment files on disk, including the active one.", ints(func(sc *scrape) int64 { return int64(sc.journal.Segments) })},
		{"graphsd_journal_replay_records_total", "counter", "Records replayed from the journal at startup.", ints(func(sc *scrape) int64 { return sc.journal.ReplayRecords })},
		{"graphsd_journal_replay_seconds", "gauge", "Wall clock the startup journal replay took.", floats(func(sc *scrape) float64 { return sc.journal.ReplayTime.Seconds() })},
	}
	// Retention: evicted > 0 with lost = 0 is the healthy steady state of a
	// long-running bounded server.
	retentionFamilies = []family[*scrape]{
		{"graphsd_jobs_retained", "gauge", "Terminal jobs still retrievable (bounded by -retain-jobs).", ints(func(sc *scrape) int64 { return int64(sc.sched.Retained) })},
		{"graphsd_jobs_evicted_total", "counter", "Terminal jobs evicted by retention, result payloads and all.", ints(func(sc *scrape) int64 { return sc.sched.Evicted })},
	}
	// Per-tenant admission counts and live occupancy, for fairness audits. A
	// single-tenant server reports one "default" row.
	tenantFamilies = []family[jobs.TenantSnapshot]{
		{"graphsd_tenant_jobs_submitted_total", "counter", "Jobs admitted, by tenant.", ints(func(t jobs.TenantSnapshot) int64 { return t.Submitted })},
		{"graphsd_tenant_jobs_done_total", "counter", "Jobs finished Done, by tenant.", ints(func(t jobs.TenantSnapshot) int64 { return t.Done })},
		{"graphsd_tenant_jobs_queued", "gauge", "Jobs waiting in the tenant's queue.", ints(func(t jobs.TenantSnapshot) int64 { return int64(t.Queued) })},
		{"graphsd_tenant_jobs_running", "gauge", "Jobs the tenant has running.", ints(func(t jobs.TenantSnapshot) int64 { return int64(t.Running) })},
		{"graphsd_tenant_weight", "gauge", "Fair-share weight.", ints(func(t jobs.TenantSnapshot) int64 { return int64(t.Weight) })},
	}
	admissionFamilies = []family[*scrape]{
		{"graphsd_jobs_current", "gauge", "Jobs currently queued or running.", []series[*scrape]{byState(jobs.Queued, current), byState(jobs.Running, current)}},
		{"graphsd_queue_depth", "gauge", "Jobs admitted but not yet running.", ints(func(sc *scrape) int64 { return int64(sc.sched.QueueLen) })},
		{"graphsd_queue_capacity", "gauge", "Admission queue capacity.", ints(func(sc *scrape) int64 { return int64(sc.sched.QueueCap) })},
		{"graphsd_mem_reserved_bytes", "gauge", "Summed memory estimates of queued and running jobs.", ints(func(sc *scrape) int64 { return sc.sched.MemUsed })},
		{"graphsd_mem_budget_bytes", "gauge", "Admission memory budget (0 = unlimited).", ints(func(sc *scrape) int64 { return sc.sched.MemBudget })},
	}
	// Whole-device counters — exact even while concurrent jobs share the device.
	deviceFamilies = []family[*graphScrape]{
		{"graphsd_device_read_bytes_total", "counter", "Bytes read from the graph's device.", ints(func(g *graphScrape) int64 { return g.dev.ReadBytes() })},
		{"graphsd_device_write_bytes_total", "counter", "Bytes written to the graph's device.", ints(func(g *graphScrape) int64 { return g.dev.WriteBytes() })},
		{"graphsd_device_ops_total", "counter", "Device operations, by access class.",
			[]series[*graphScrape]{byClass(storage.SeqRead, "seq_read"), byClass(storage.RandRead, "rand_read"), byClass(storage.SeqWrite, "seq_write"), byClass(storage.RandWrite, "rand_write")}},
		{"graphsd_device_retries_total", "counter", "Read attempts repeated after transient faults.", ints(func(g *graphScrape) int64 { return g.dev.Retries })},
		{"graphsd_device_busy_seconds_total", "counter", "Simulated device time consumed.", floats(func(g *graphScrape) float64 { return g.dev.TotalTime().Seconds() })},
	}
	// Mutable-graph write path: all-time mutation and compaction counts ride
	// in the manifest (MutationsTotal, Generation), so these counters survive
	// restarts; layer count/bytes and the memtable are live state. Read-only
	// graphs are omitted — absence distinguishes "not mutable" from "no
	// writes yet".
	storeFamilies = []family[*graphScrape]{
		{"graphsd_mutations_total", "counter", "Edge mutations durably applied to the graph over its lifetime (survives restarts).", ints(func(g *graphScrape) int64 { return g.store.MutationsTotal })},
		{"graphsd_compactions_total", "counter", "Compactions published over the graph's lifetime (the layout generation; survives restarts).", ints(func(g *graphScrape) int64 { return int64(g.store.Generation) })},
		{"graphsd_delta_layers", "gauge", "Sealed delta layers awaiting compaction.", ints(func(g *graphScrape) int64 { return int64(g.store.Layers) })},
		{"graphsd_delta_bytes", "gauge", "On-disk bytes of sealed delta layers (pending-compaction volume).", ints(func(g *graphScrape) int64 { return g.store.LayerBytes })},
		{"graphsd_memtable_bytes", "gauge", "Estimated bytes of unsealed mutations in the memtable.", ints(func(g *graphScrape) int64 { return g.store.MemtableBytes })},
		{"graphsd_mutation_batches_total", "counter", "Mutation batches acknowledged by this process.", ints(func(g *graphScrape) int64 { return g.store.Batches })},
		{"graphsd_memtable_seals_total", "counter", "Memtable seals into delta layers by this process.", ints(func(g *graphScrape) int64 { return g.store.Seals })},
		{"graphsd_snapshot_pins", "gauge", "Live job snapshots pinning a layout generation.", ints(func(g *graphScrape) int64 { return int64(g.store.Pins) })},
	}
	// Shared sub-block cache, then the aggregates folded from completed jobs:
	// I/O pipeline, per-run priority buffer, async scheduler, calibration.
	cacheFamilies = []family[*graphScrape]{
		{"graphsd_shared_cache_hits_total", "counter", "Sub-block loads served from the cross-job shared cache (incl. single-flight dedup waits).", ints(func(g *graphScrape) int64 { return g.shared.Hits })},
		{"graphsd_shared_cache_misses_total", "counter", "Sub-block loads that went to the device.", ints(func(g *graphScrape) int64 { return g.shared.Misses })},
		{"graphsd_shared_cache_bytes_saved_total", "counter", "Decoded sub-block bytes served by shared-cache hits (the device read less than this on compressed layouts).", ints(func(g *graphScrape) int64 { return g.shared.BytesSaved })},
		{"graphsd_shared_cache_evictions_total", "counter", "Shared-cache LRU evictions.", ints(func(g *graphScrape) int64 { return g.shared.Evictions })},
		{"graphsd_shared_cache_compressed_hits_total", "counter", "Shared-cache hits served from the compressed (delta-coded) tier.", ints(func(g *graphScrape) int64 { return g.shared.CompressedHits })},
		{"graphsd_shared_cache_decode_seconds_total", "counter", "Wall time spent decoding compressed-tier hits (overlapped with compute).", floats(func(g *graphScrape) float64 { return g.shared.DecodeTime.Seconds() })},
		{"graphsd_shared_cache_used_bytes", "gauge", "Bytes resident in the shared cache: decoded edges, or encoded payloads on a compressed cache.", ints(func(g *graphScrape) int64 { return g.used })},
		{"graphsd_shared_cache_capacity_bytes", "gauge", "Shared cache capacity.", ints(func(g *graphScrape) int64 { return g.cap })},
		{"graphsd_jobs_completed_runs_total", "counter", "Completed runs folded into the per-graph aggregates.", ints(func(g *graphScrape) int64 { return g.agg.jobsRun })},
		{"graphsd_pipeline_blocks_total", "counter", "Sub-blocks delivered by the I/O pipeline.", ints(func(g *graphScrape) int64 { return int64(g.agg.pipeline.Blocks) })},
		{"graphsd_pipeline_fallbacks_total", "counter", "Sub-blocks loaded synchronously after a pipeline degrade on a transient fault.", ints(func(g *graphScrape) int64 { return int64(g.agg.pipeline.Fallbacks) })},
		{"graphsd_sem_blocks_skipped_total", "counter", "Non-empty sub-blocks never read because their source interval held no active vertex (every job skips them, -sem or not).", ints(func(g *graphScrape) int64 { return int64(g.agg.pipeline.Skipped) })},
		{"graphsd_sem_bytes_skipped_total", "counter", "On-disk bytes of skipped sub-blocks that the per-run buffer did not hold — device traffic avoided.", ints(func(g *graphScrape) int64 { return g.agg.pipeline.SkippedBytes })},
		{"graphsd_pipeline_stall_seconds_total", "counter", "Compute time spent waiting on prefetches.", floats(func(g *graphScrape) float64 { return g.agg.pipeline.Stall.Seconds() })},
		{"graphsd_pipeline_overlap_seconds_total", "counter", "I/O time overlapped with compute.", floats(func(g *graphScrape) float64 { return g.agg.pipeline.Overlap.Seconds() })},
		{"graphsd_buffer_hits_total", "counter", "Per-run priority-buffer hits, summed over completed jobs.", ints(func(g *graphScrape) int64 { return g.agg.buffer.Hits })},
		{"graphsd_buffer_bytes_saved_total", "counter", "Device bytes avoided by per-run buffer hits, summed over completed jobs.", ints(func(g *graphScrape) int64 { return g.agg.buffer.BytesSaved })},
		{"graphsd_async_runs_total", "counter", "Completed jobs executed by the asynchronous priority scheduler.", ints(func(g *graphScrape) int64 { return g.agg.asyncRuns })},
		{"graphsd_async_steps_total", "counter", "Async scheduler pops (one grid row processed per step: drained through its diagonal sub-block and pushed across, or swept once), summed over completed jobs.", ints(func(g *graphScrape) int64 { return g.agg.asyncSteps })},
		{"graphsd_async_rounds_total", "counter", "Sweeps of a popped row's own interval (drain rounds of label-correcting jobs, one per step otherwise), summed over completed async jobs.", ints(func(g *graphScrape) int64 { return g.agg.asyncRounds })},
		{"graphsd_async_blocks_scheduled_total", "counter", "Sub-block sweeps by async steps (a drain's diagonal once per round), summed over completed jobs.", ints(func(g *graphScrape) int64 { return g.agg.asyncBlocks })},
		{"graphsd_async_reactivations_total", "counter", "Vertices re-entering the frontier after having been consumed, summed over completed async jobs.", ints(func(g *graphScrape) int64 { return g.agg.asyncReacts })},
		{"graphsd_sched_observed_iterations_total", "counter", "Iterations fed back through the scheduler's calibration loop, summed over completed jobs.", ints(func(g *graphScrape) int64 { return g.agg.schedObserved })},
		{"graphsd_sched_mispredict_mean_ratio", "gauge", "Observation-weighted mean |predicted-actual|/actual of the scheduler's iteration cost predictions.", floats(func(g *graphScrape) float64 { return g.agg.meanMispredict() })},
		{"graphsd_sched_mispredict_max_ratio", "gauge", "Worst per-iteration misprediction ratio seen across completed jobs.", floats(func(g *graphScrape) float64 { return g.agg.schedMaxMispred })},
		{"graphsd_sched_correction_factor", "gauge", "Final EWMA cost-correction factors of the most recent completed job, by I/O model.", []series[*graphScrape]{
			byModel("full", func(a *aggregates) float64 { return a.schedCorrFull }), byModel("on-demand", func(a *aggregates) float64 { return a.schedCorrOnDemand })}},
	}
)

// handleMetrics renders the Prometheus text exposition from one scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	sc := &scrape{uptime: time.Since(s.start).Seconds(), sched: s.sched.Snapshot()}
	if s.journal != nil {
		sc.journal = s.journal.Stats()
	}
	var graphs, mutable []*graphScrape
	for _, name := range s.names {
		e := s.graphs[name]
		g := &graphScrape{name: name, dev: e.dev.Stats(), shared: e.shared.Stats(), used: e.shared.Used(), cap: e.shared.Capacity(), agg: e.folded()}
		graphs = append(graphs, g)
		if e.store != nil {
			g.store = e.store.Stats()
			mutable = append(mutable, g)
		}
	}
	server, unlabelled := []*scrape{sc}, func(*scrape) []metrics.Label { return nil }
	graphLabel := func(g *graphScrape) []metrics.Label { return []metrics.Label{metrics.L("graph", g.name)} }

	p := metrics.NewProm(w) // latches the first write error: a client gone mid-scrape makes the rest no-ops
	emit(p, schedFamilies, server, unlabelled)
	if s.journal != nil {
		emit(p, journalFamilies, server, unlabelled)
	}
	emit(p, retentionFamilies, server, unlabelled)
	emit(p, tenantFamilies, sc.sched.Tenants, func(t jobs.TenantSnapshot) []metrics.Label { return []metrics.Label{metrics.L("tenant", t.Name)} })
	emit(p, admissionFamilies, server, unlabelled)
	emit(p, deviceFamilies, graphs, graphLabel)
	if len(mutable) > 0 {
		emit(p, storeFamilies, mutable, graphLabel)
	}
	emit(p, cacheFamilies, graphs, graphLabel)
}
