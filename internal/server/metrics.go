package server

import (
	"net/http"
	"time"

	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/jobs"
	"github.com/graphsd/graphsd/internal/metrics"
	"github.com/graphsd/graphsd/internal/pipeline"
	"github.com/graphsd/graphsd/internal/storage"
)

// handleMetrics renders the Prometheus text exposition: scheduler counters
// and gauges, then per-graph device traffic (including retry counters),
// shared-cache effectiveness, and the pipeline/buffer aggregates folded in
// from completed jobs.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := metrics.NewProm(w)

	p.Header("graphsd_uptime_seconds", "gauge", "Seconds since the server started.")
	p.Val("graphsd_uptime_seconds", time.Since(s.start).Seconds())

	p.Header("graphsd_jobs_total", "counter", "Jobs finished, by terminal state.")
	finished := s.sched.FinishedCounts()
	for _, st := range []jobs.State{jobs.Done, jobs.Failed, jobs.Cancelled, jobs.Expired} {
		p.Int("graphsd_jobs_total", finished[st], metrics.L("state", st.String()))
	}

	// Durability: what the startup journal replay did, plus live journal
	// traffic. All zero when the server runs without -journal.
	rec := s.sched.Recovery()
	p.Header("graphsd_jobs_recovered_total", "counter", "Journaled jobs restored already-terminal at startup replay.")
	p.Int("graphsd_jobs_recovered_total", rec.Recovered)
	p.Header("graphsd_jobs_requeued_total", "counter", "Journaled jobs re-queued for execution at startup replay (Resumable of them hold an engine checkpoint).")
	p.Int("graphsd_jobs_requeued_total", rec.Requeued)
	p.Header("graphsd_jobs_lost_total", "counter", "Journaled jobs the replay could neither finish nor re-queue. Must stay 0.")
	p.Int("graphsd_jobs_lost_total", rec.Lost)
	p.Header("graphsd_jobs_expired_deadline_total", "counter", "Jobs expired past their Request.Deadline (at replay or at runtime).")
	p.Int("graphsd_jobs_expired_deadline_total", s.sched.ExpiredDeadline())
	p.Header("graphsd_jobs_retried_total", "counter", "Job-level retry attempts after transient storage failures.")
	p.Int("graphsd_jobs_retried_total", s.sched.Retried())
	if s.journal != nil {
		js := s.journal.Stats()
		p.Header("graphsd_journal_records_total", "counter", "Records appended to the job journal by this process.")
		p.Int("graphsd_journal_records_total", js.Records)
		p.Header("graphsd_journal_bytes_total", "counter", "Bytes appended to the job journal by this process.")
		p.Int("graphsd_journal_bytes_total", js.Bytes)
		p.Header("graphsd_journal_segments", "gauge", "Journal segment files on disk, including the active one.")
		p.Int("graphsd_journal_segments", int64(js.Segments))
		p.Header("graphsd_journal_replay_records_total", "counter", "Records replayed from the journal at startup.")
		p.Int("graphsd_journal_replay_records_total", js.ReplayRecords)
		p.Header("graphsd_journal_replay_seconds", "gauge", "Wall clock the startup journal replay took.")
		p.Val("graphsd_journal_replay_seconds", js.ReplayTime.Seconds())
	}

	// Retention: how many terminal jobs remain retrievable vs evicted to
	// bound memory. evicted > 0 with lost = 0 is the healthy steady state
	// of a long-running bounded server.
	p.Header("graphsd_jobs_retained", "gauge", "Terminal jobs still retrievable (bounded by -retain-jobs).")
	p.Int("graphsd_jobs_retained", int64(s.sched.Retained()))
	p.Header("graphsd_jobs_evicted_total", "counter", "Terminal jobs evicted by retention, result payloads and all.")
	p.Int("graphsd_jobs_evicted_total", s.sched.Evicted())

	// Per-tenant scheduler state: admission counts and live queue/running
	// occupancy, for fairness audits. A single-tenant server reports one
	// "default" row.
	tenants := s.sched.Tenants()
	p.Header("graphsd_tenant_jobs_submitted_total", "counter", "Jobs admitted, by tenant.")
	for _, t := range tenants {
		p.Int("graphsd_tenant_jobs_submitted_total", t.Submitted, metrics.L("tenant", t.Name))
	}
	p.Header("graphsd_tenant_jobs_done_total", "counter", "Jobs finished Done, by tenant.")
	for _, t := range tenants {
		p.Int("graphsd_tenant_jobs_done_total", t.Done, metrics.L("tenant", t.Name))
	}
	p.Header("graphsd_tenant_jobs_queued", "gauge", "Jobs waiting in the tenant's queue.")
	for _, t := range tenants {
		p.Int("graphsd_tenant_jobs_queued", int64(t.Queued), metrics.L("tenant", t.Name))
	}
	p.Header("graphsd_tenant_jobs_running", "gauge", "Jobs the tenant has running.")
	for _, t := range tenants {
		p.Int("graphsd_tenant_jobs_running", int64(t.Running), metrics.L("tenant", t.Name))
	}
	p.Header("graphsd_tenant_weight", "gauge", "Fair-share weight.")
	for _, t := range tenants {
		p.Int("graphsd_tenant_weight", int64(t.Weight), metrics.L("tenant", t.Name))
	}

	p.Header("graphsd_jobs_current", "gauge", "Jobs currently queued or running.")
	counts := s.sched.Counts()
	for _, st := range []jobs.State{jobs.Queued, jobs.Running} {
		p.Int("graphsd_jobs_current", counts[st], metrics.L("state", st.String()))
	}

	qLen, qCap := s.sched.QueueDepth()
	p.Header("graphsd_queue_depth", "gauge", "Jobs admitted but not yet running.")
	p.Int("graphsd_queue_depth", int64(qLen))
	p.Header("graphsd_queue_capacity", "gauge", "Admission queue capacity.")
	p.Int("graphsd_queue_capacity", int64(qCap))

	memUsed, memBudget := s.sched.MemReserved()
	p.Header("graphsd_mem_reserved_bytes", "gauge", "Summed memory estimates of queued and running jobs.")
	p.Int("graphsd_mem_reserved_bytes", memUsed)
	p.Header("graphsd_mem_budget_bytes", "gauge", "Admission memory budget (0 = unlimited).")
	p.Int("graphsd_mem_budget_bytes", memBudget)

	// Per-graph device traffic. These are whole-device counters — exact
	// even while concurrent jobs share the device.
	p.Header("graphsd_device_read_bytes_total", "counter", "Bytes read from the graph's device.")
	for _, name := range s.names {
		p.Int("graphsd_device_read_bytes_total", s.graphs[name].dev.Stats().ReadBytes(), metrics.L("graph", name))
	}
	p.Header("graphsd_device_write_bytes_total", "counter", "Bytes written to the graph's device.")
	for _, name := range s.names {
		p.Int("graphsd_device_write_bytes_total", s.graphs[name].dev.Stats().WriteBytes(), metrics.L("graph", name))
	}
	p.Header("graphsd_device_ops_total", "counter", "Device operations, by access class.")
	classes := []struct {
		c     storage.Class
		label string
	}{
		{storage.SeqRead, "seq_read"},
		{storage.RandRead, "rand_read"},
		{storage.SeqWrite, "seq_write"},
		{storage.RandWrite, "rand_write"},
	}
	for _, name := range s.names {
		st := s.graphs[name].dev.Stats()
		for _, cl := range classes {
			p.Int("graphsd_device_ops_total", st.Ops[cl.c], metrics.L("graph", name), metrics.L("class", cl.label))
		}
	}
	p.Header("graphsd_device_retries_total", "counter", "Read attempts repeated after transient faults.")
	for _, name := range s.names {
		p.Int("graphsd_device_retries_total", s.graphs[name].dev.Stats().Retries, metrics.L("graph", name))
	}
	p.Header("graphsd_device_busy_seconds_total", "counter", "Simulated device time consumed.")
	for _, name := range s.names {
		p.Val("graphsd_device_busy_seconds_total", s.graphs[name].dev.Stats().TotalTime().Seconds(), metrics.L("graph", name))
	}

	// Mutable-graph write path: all-time mutation and compaction counts
	// ride in the manifest (MutationsTotal, Generation), so these counters
	// survive restarts; layer count/bytes and the memtable are live state.
	// Read-only graphs are omitted — absence distinguishes "not mutable"
	// from "no writes yet".
	var mutable []string
	for _, name := range s.names {
		if s.graphs[name].store != nil {
			mutable = append(mutable, name)
		}
	}
	if len(mutable) > 0 {
		p.Header("graphsd_mutations_total", "counter", "Edge mutations durably applied to the graph over its lifetime (survives restarts).")
		for _, name := range mutable {
			p.Int("graphsd_mutations_total", s.graphs[name].store.Stats().MutationsTotal, metrics.L("graph", name))
		}
		p.Header("graphsd_compactions_total", "counter", "Compactions published over the graph's lifetime (the layout generation; survives restarts).")
		for _, name := range mutable {
			p.Int("graphsd_compactions_total", int64(s.graphs[name].store.Stats().Generation), metrics.L("graph", name))
		}
		p.Header("graphsd_delta_layers", "gauge", "Sealed delta layers awaiting compaction.")
		for _, name := range mutable {
			p.Int("graphsd_delta_layers", int64(s.graphs[name].store.Stats().Layers), metrics.L("graph", name))
		}
		p.Header("graphsd_delta_bytes", "gauge", "On-disk bytes of sealed delta layers (pending-compaction volume).")
		for _, name := range mutable {
			p.Int("graphsd_delta_bytes", s.graphs[name].store.Stats().LayerBytes, metrics.L("graph", name))
		}
		p.Header("graphsd_memtable_bytes", "gauge", "Estimated bytes of unsealed mutations in the memtable.")
		for _, name := range mutable {
			p.Int("graphsd_memtable_bytes", s.graphs[name].store.Stats().MemtableBytes, metrics.L("graph", name))
		}
		p.Header("graphsd_mutation_batches_total", "counter", "Mutation batches acknowledged by this process.")
		for _, name := range mutable {
			p.Int("graphsd_mutation_batches_total", s.graphs[name].store.Stats().Batches, metrics.L("graph", name))
		}
		p.Header("graphsd_memtable_seals_total", "counter", "Memtable seals into delta layers by this process.")
		for _, name := range mutable {
			p.Int("graphsd_memtable_seals_total", s.graphs[name].store.Stats().Seals, metrics.L("graph", name))
		}
		p.Header("graphsd_snapshot_pins", "gauge", "Live job snapshots pinning a layout generation.")
		for _, name := range mutable {
			p.Int("graphsd_snapshot_pins", int64(s.graphs[name].store.Stats().Pins), metrics.L("graph", name))
		}
	}

	// Shared sub-block cache, per graph: one snapshot per graph per scrape, so
	// the counters describe one instant and a ratio between them (hits over
	// hits + misses) is a ratio of one state.
	shared := make([]buffer.SharedStats, len(s.names))
	for i, name := range s.names {
		shared[i] = s.graphs[name].shared.Stats()
	}
	p.Header("graphsd_shared_cache_hits_total", "counter", "Sub-block loads served from the cross-job shared cache (incl. single-flight dedup waits).")
	for i, name := range s.names {
		p.Int("graphsd_shared_cache_hits_total", shared[i].Hits, metrics.L("graph", name))
	}
	p.Header("graphsd_shared_cache_misses_total", "counter", "Sub-block loads that went to the device.")
	for i, name := range s.names {
		p.Int("graphsd_shared_cache_misses_total", shared[i].Misses, metrics.L("graph", name))
	}
	p.Header("graphsd_shared_cache_bytes_saved_total", "counter", "Decoded sub-block bytes served by shared-cache hits (the device read less than this on compressed layouts).")
	for i, name := range s.names {
		p.Int("graphsd_shared_cache_bytes_saved_total", shared[i].BytesSaved, metrics.L("graph", name))
	}
	p.Header("graphsd_shared_cache_evictions_total", "counter", "Shared-cache LRU evictions.")
	for i, name := range s.names {
		p.Int("graphsd_shared_cache_evictions_total", shared[i].Evictions, metrics.L("graph", name))
	}
	p.Header("graphsd_shared_cache_compressed_hits_total", "counter", "Shared-cache hits served from the compressed (delta-coded) tier.")
	for i, name := range s.names {
		p.Int("graphsd_shared_cache_compressed_hits_total", shared[i].CompressedHits, metrics.L("graph", name))
	}
	p.Header("graphsd_shared_cache_decode_seconds_total", "counter", "Wall time spent decoding compressed-tier hits (overlapped with compute).")
	for i, name := range s.names {
		p.Val("graphsd_shared_cache_decode_seconds_total", shared[i].DecodeTime.Seconds(), metrics.L("graph", name))
	}
	p.Header("graphsd_shared_cache_used_bytes", "gauge", "Bytes resident in the shared cache: decoded edges, or encoded payloads on a compressed cache.")
	for _, name := range s.names {
		p.Int("graphsd_shared_cache_used_bytes", s.graphs[name].shared.Used(), metrics.L("graph", name))
	}
	p.Header("graphsd_shared_cache_capacity_bytes", "gauge", "Shared cache capacity.")
	for _, name := range s.names {
		p.Int("graphsd_shared_cache_capacity_bytes", s.graphs[name].shared.Capacity(), metrics.L("graph", name))
	}

	// Aggregates folded from completed jobs: I/O pipeline (including the
	// synchronous-fallback counter) and per-run priority buffer.
	type agg struct {
		name          string
		runs          int64
		pipe          pipeline.Stats
		buf           buffer.Stats
		schedObserved int64
		schedMean     float64
		schedMax      float64
		corrFull      float64
		corrOnDemand  float64
		asyncRuns     int64
		asyncSteps    int64
		asyncBlocks   int64
		asyncReacts   int64
	}
	aggs := make([]agg, 0, len(s.names))
	for _, name := range s.names {
		g := s.graphs[name]
		g.mu.Lock()
		a := agg{name: name, runs: g.jobsRun, pipe: g.pipeline, buf: g.buffer,
			schedObserved: g.schedObserved, schedMax: g.schedMaxMispred,
			corrFull: g.schedCorrFull, corrOnDemand: g.schedCorrOnDemand,
			asyncRuns: g.asyncRuns, asyncSteps: g.asyncSteps,
			asyncBlocks: g.asyncBlocks, asyncReacts: g.asyncReacts}
		if g.schedObserved > 0 {
			a.schedMean = g.schedMispredict / float64(g.schedObserved)
		}
		g.mu.Unlock()
		aggs = append(aggs, a)
	}
	p.Header("graphsd_jobs_completed_runs_total", "counter", "Completed runs folded into the per-graph aggregates.")
	for _, a := range aggs {
		p.Int("graphsd_jobs_completed_runs_total", a.runs, metrics.L("graph", a.name))
	}
	p.Header("graphsd_pipeline_blocks_total", "counter", "Sub-blocks delivered by the I/O pipeline.")
	for _, a := range aggs {
		p.Int("graphsd_pipeline_blocks_total", int64(a.pipe.Blocks), metrics.L("graph", a.name))
	}
	p.Header("graphsd_pipeline_fallbacks_total", "counter", "Sub-blocks loaded synchronously after a pipeline degrade on a transient fault.")
	for _, a := range aggs {
		p.Int("graphsd_pipeline_fallbacks_total", int64(a.pipe.Fallbacks), metrics.L("graph", a.name))
	}
	p.Header("graphsd_sem_blocks_skipped_total", "counter", "Non-empty sub-blocks never read because their source interval held no active vertex (every job skips them, -sem or not).")
	for _, a := range aggs {
		p.Int("graphsd_sem_blocks_skipped_total", int64(a.pipe.Skipped), metrics.L("graph", a.name))
	}
	p.Header("graphsd_sem_bytes_skipped_total", "counter", "On-disk bytes of skipped sub-blocks that the per-run buffer did not hold — device traffic avoided.")
	for _, a := range aggs {
		p.Int("graphsd_sem_bytes_skipped_total", a.pipe.SkippedBytes, metrics.L("graph", a.name))
	}
	p.Header("graphsd_pipeline_stall_seconds_total", "counter", "Compute time spent waiting on prefetches.")
	for _, a := range aggs {
		p.Val("graphsd_pipeline_stall_seconds_total", a.pipe.Stall.Seconds(), metrics.L("graph", a.name))
	}
	p.Header("graphsd_pipeline_overlap_seconds_total", "counter", "I/O time overlapped with compute.")
	for _, a := range aggs {
		p.Val("graphsd_pipeline_overlap_seconds_total", a.pipe.Overlap.Seconds(), metrics.L("graph", a.name))
	}
	p.Header("graphsd_buffer_hits_total", "counter", "Per-run priority-buffer hits, summed over completed jobs.")
	for _, a := range aggs {
		p.Int("graphsd_buffer_hits_total", a.buf.Hits, metrics.L("graph", a.name))
	}
	p.Header("graphsd_buffer_bytes_saved_total", "counter", "Device bytes avoided by per-run buffer hits, summed over completed jobs.")
	for _, a := range aggs {
		p.Int("graphsd_buffer_bytes_saved_total", a.buf.BytesSaved, metrics.L("graph", a.name))
	}
	p.Header("graphsd_async_runs_total", "counter", "Completed jobs executed by the asynchronous priority scheduler.")
	for _, a := range aggs {
		p.Int("graphsd_async_runs_total", a.asyncRuns, metrics.L("graph", a.name))
	}
	p.Header("graphsd_async_steps_total", "counter", "Async scheduler pops (one source interval processed per step), summed over completed jobs.")
	for _, a := range aggs {
		p.Int("graphsd_async_steps_total", a.asyncSteps, metrics.L("graph", a.name))
	}
	p.Header("graphsd_async_blocks_scheduled_total", "counter", "Sub-blocks processed by async steps, summed over completed jobs.")
	for _, a := range aggs {
		p.Int("graphsd_async_blocks_scheduled_total", a.asyncBlocks, metrics.L("graph", a.name))
	}
	p.Header("graphsd_async_reactivations_total", "counter", "Vertices re-entering the frontier after having been consumed, summed over completed async jobs.")
	for _, a := range aggs {
		p.Int("graphsd_async_reactivations_total", a.asyncReacts, metrics.L("graph", a.name))
	}
	p.Header("graphsd_sched_observed_iterations_total", "counter", "Iterations fed back through the scheduler's calibration loop, summed over completed jobs.")
	for _, a := range aggs {
		p.Int("graphsd_sched_observed_iterations_total", a.schedObserved, metrics.L("graph", a.name))
	}
	p.Header("graphsd_sched_mispredict_mean_ratio", "gauge", "Observation-weighted mean |predicted-actual|/actual of the scheduler's iteration cost predictions.")
	for _, a := range aggs {
		p.Val("graphsd_sched_mispredict_mean_ratio", a.schedMean, metrics.L("graph", a.name))
	}
	p.Header("graphsd_sched_mispredict_max_ratio", "gauge", "Worst per-iteration misprediction ratio seen across completed jobs.")
	for _, a := range aggs {
		p.Val("graphsd_sched_mispredict_max_ratio", a.schedMax, metrics.L("graph", a.name))
	}
	p.Header("graphsd_sched_correction_factor", "gauge", "Final EWMA cost-correction factors of the most recent completed job, by I/O model.")
	for _, a := range aggs {
		p.Val("graphsd_sched_correction_factor", a.corrFull, metrics.L("graph", a.name), metrics.L("model", "full"))
		p.Val("graphsd_sched_correction_factor", a.corrOnDemand, metrics.L("graph", a.name), metrics.L("model", "on-demand"))
	}
	if err := p.Err(); err != nil {
		// The client went away mid-scrape; nothing recoverable.
		return
	}
}
