package main

import (
	"fmt"
	"math"
)

// metricDef names one metric; BENCHMARK.json lists the same names, units and
// directions (the test in this package holds the two together).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees. failed_ratio is
// reported too, but is 0 on a healthy run, so it is carried as the
// attempted/failed counts of every result instead of a bounded metric.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"model_s", "s", "lower"},
	{"device_bytes", "bytes/op", "lower"},
	{"throughput_medges_s", "Medges/s", "higher"},
}

// perLayer are the single-layer metrics, named <module>.<metric>. Every
// workload emits all of them; a layer a workload never enters reads 0.
var perLayer = []metricDef{
	{"storage.read_bytes", "bytes/op", "lower"},
	{"storage.read_ops", "count/op", "lower"},
	{"storage.rand_read_ops", "count/op", "lower"},
	{"storage.write_bytes", "bytes/op", "lower"},
	{"storage.sim_s", "s/op", "lower"},
	{"storage.retries", "count/op", "lower"},
	{"storage.read_ns_per_byte", "ns/byte", "lower"},

	{"partition.verify_ns_per_byte", "ns/byte", "lower"},
	{"partition.load_block_us", "us", "lower"},
	{"partition.load_self_us", "us", "lower"},
	{"partition.index_load_us", "us", "lower"},
	{"partition.vertex_read_us", "us", "lower"},

	{"graph.decode_ns_per_edge", "ns/edge", "lower"},
	{"graph.decode_s", "s/op", "lower"},

	{"buffer.hit_ratio", "ratio", "higher"},
	{"buffer.evictions", "count/op", "lower"},
	{"buffer.bytes_saved", "bytes/op", "higher"},
	{"buffer.shared_hit_ratio", "ratio", "higher"},
	{"buffer.shared_hit_ns", "ns", "lower"},
	{"buffer.shared_compressed_hits", "count/op", "higher"},

	{"pipeline.stall_s", "s/op", "lower"},
	{"pipeline.overlap_s", "s/op", "higher"},
	{"pipeline.blocks_prefetched", "count/op", "lower"},
	{"pipeline.skipped_blocks", "count/op", "higher"},
	{"pipeline.fallbacks", "count/op", "lower"},

	{"iosched.decide_us", "us", "lower"},
	{"iosched.overhead_s", "s/op", "lower"},
	{"iosched.mispredict_mean", "ratio", "lower"},
	{"iosched.ondemand_iter_share", "ratio", "lower"},

	{"core.compute_s", "s/op", "lower"},
	{"core.compute_ns_per_edge", "ns/edge", "lower"},
	{"core.overhead_s", "s/op", "lower"},
	{"core.iterations", "count/op", "lower"},
	{"core.iter_wall_p50_us", "us", "lower"},
	{"core.allocs_per_op", "count/op", "lower"},
	{"core.alloc_bytes_per_op", "bytes/op", "lower"},
	{"core.heap_peak_bytes", "bytes", "lower"},
	{"core.sem_blocks_skipped", "count/op", "higher"},
	{"core.async_steps", "count/op", "lower"},
	{"core.async_blocks_scheduled", "count/op", "lower"},
	{"core.async_reactivations", "count/op", "lower"},

	{"checkpoint.save_us", "us", "lower"},

	{"wal.append_sync_us", "us", "lower"},
	{"wal.append_nosync_us", "us", "lower"},

	{"jobs.queue_wait_p50_s", "s", "lower"},
	{"jobs.run_p50_s", "s", "lower"},
	{"jobs.run_p50_s.pr", "s", "lower"},
	{"jobs.run_p50_s.bfs", "s", "lower"},
	{"jobs.run_p50_s.cc", "s", "lower"},
	{"jobs.run_p50_s.sssp", "s", "lower"},
	{"jobs.journal_records", "count/op", "lower"},
	{"jobs.journal_bytes", "bytes/op", "lower"},
	{"jobs.rejected", "count", "lower"},

	{"server.submit_p50_s", "s", "lower"},
	{"server.status_poll_us", "us", "lower"},
	{"server.result_ttfb_s", "s", "lower"},
	{"server.result_stream_s", "s", "lower"},
	{"server.job_tail_s", "s", "lower"},
	{"server.job_tail_pct", "%", "higher"},
	{"server.mutate_ack_p50_s", "s", "lower"},
	{"server.mutate_ack_tail_s", "s", "lower"},

	{"delta.apply_us_per_mutation", "us", "lower"},
	{"delta.seal_s", "s", "lower"},
	{"delta.compact_s", "s", "lower"},
	{"delta.compact_bytes_rewritten", "bytes", "lower"},
	{"delta.layers_at_end", "count", "lower"},
	{"delta.write_amp", "ratio", "lower"},
	{"delta.overlay_load_ratio", "ratio", "lower"},

	{"bench.trace_overhead_ratio", "ratio", "lower"},
	{"bench.ops", "count", "higher"},
	{"bench.window_s", "s", "lower"},
	{"bench.host_factor", "ratio", "lower"},
	{"bench.raw_wall_s", "s", "lower"},
}

// metricValue is one reported number. Samples is how many measurements it
// summarises (ops for a median or mean, calls for a per-call time, 1 for a
// counter read once).
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// metricSet collects values by name and checks them against a definition
// list when the run ends.
type metricSet map[string]metricValue

func (m metricSet) set(name string, value float64, samples int) {
	m[name] = metricValue{Value: value, Samples: samples}
}

// finish fills in units, zeroes the metrics the workload never touched, and
// rejects a name outside defs or a value that is not a finite number.
func (m metricSet) finish(defs []metricDef) error {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		v := m[d.Name]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite: %v", d.Name, v.Value)
		}
		v.Unit = d.Unit
		m[d.Name] = v
	}
	for name := range m {
		if !known[name] {
			return fmt.Errorf("metric %s is not defined", name)
		}
	}
	return nil
}
