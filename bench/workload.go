package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"syscall"
	"time"

	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// Every layout is built with these, whatever the workload.
const gridP = 8

var deviceProfile = storage.ScaledHDD

const deviceProfileName = "ScaledHDD"

// scale sizes the generated inputs. "full" is the benchmark; "smoke" is the
// same code over tiny graphs for the package's tests.
type scale struct {
	Name          string `json:"name"`
	RMATScale     int    `json:"rmat_scale"`
	EdgeFactor    int    `json:"edge_factor"`
	LatticeSide   int    `json:"lattice_side"`
	LatticeInputs int    `json:"lattice_inputs"`
	ServeScale    int    `json:"serve_scale"`
}

var scales = map[string]scale{
	"full":  {"full", 17, 16, 128, 16, 14},
	"smoke": {"smoke", 10, 16, 24, 2, 9},
}

// config is one invocation's settings.
type config struct {
	Seed  int64
	Scale scale
	// Seconds is the untraced timed window and TracedSeconds the traced
	// one. With Blocks positive a pass instead runs that many blocks of ops
	// (the smoke scale runs by count, the benchmark by time).
	Seconds       float64
	TracedSeconds float64
	Blocks        int
	// Setups is how many times set-up is repeated; setup_s is the median.
	Setups  int
	WorkDir string // scratch space, removed when the run ends
	OutDir  string // where trace files go
	// probe measures the host factor every reported time is scaled by.
	probe *hostProbe
}

// passEnd decides when a timed pass stops issuing ops. Ops come in blocks
// (see batchSpec.block); a block once begun is finished, so every op of a
// pass counts in some block.
type passEnd struct {
	deadline time.Time
	blocks   int // 0 means by deadline only
}

func (c config) pass(seconds float64) passEnd {
	return passEnd{deadline: time.Now().Add(time.Duration(seconds * float64(time.Second))), blocks: c.Blocks}
}

// more reports whether another op should start after done ops, in blocks of
// block ops.
func (p passEnd) more(done, block int) bool {
	switch {
	case done%block != 0:
		return true
	case p.blocks > 0:
		return done < p.blocks*block
	}
	return time.Now().Before(p.deadline)
}

// traced reports whether the run includes a traced pass.
func (c config) traced() bool { return c.TracedSeconds > 0 || c.Blocks > 0 }

// workloadReport is one workload's section of the output file.
type workloadReport struct {
	Name      string         `json:"name"`
	Why       string         `json:"why"`
	Input     map[string]any `json:"input"`
	Ops       int            `json:"ops"`
	TracedOps int            `json:"traced_ops"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	// FailedRatio is failed/attempted; Failures holds the first few reasons.
	FailedRatio float64   `json:"failed_ratio"`
	Failures    []string  `json:"failures,omitempty"`
	EndToEnd    metricSet `json:"end_to_end"`
	PerLayer    metricSet `json:"per_layer"`
	// WallTailPct/WallTailS are the highest percentile of op wall-clock
	// with at least ten samples beyond it — diagnostic, not bounded.
	WallTailPct float64 `json:"wall_tail_pct"`
	WallTailS   float64 `json:"wall_tail_s"`
	TraceFile   string  `json:"trace_file,omitempty"`
}

// fail records one failed op, keeping only the first few reasons.
func (r *workloadReport) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// workload is one entry of the benchmark.
type workload struct {
	Name string
	Why  string
	Run  func(cfg config) (*workloadReport, error)
}

var workloads = []workload{
	{"pr_fit", "cache fits: warm raw shared cache of 2x the decoded graph, so PageRank is all core scatter/apply", runPRFit},
	{"pr_ooc", "cache does not fit: per-run buffer of 1/8 the graph, so every pass re-reads, verifies and decodes", runPROOC},
	{"sssp_bsp", "high-diameter lattice under the adaptive BSP engine: scheduler flips, selective reads, per-iteration fixed costs", runSSSPBSP},
	{"sssp_async", "same lattices under the async work-list engine: fewer device bytes, more wall-clock", runSSSPAsync},
	{"serve_mixed", "closed loop of 2 clients on a journaled mutable server: jobs beside mutation batches, seals and compaction", runServeMixed},
}

// buildLayout writes g as a fresh P=8 delta-codec layout under dir.
func buildLayout(dir string, g *graph.Graph) (*partition.Layout, error) {
	dev, err := storage.OpenDevice(dir, deviceProfile)
	if err != nil {
		return nil, err
	}
	return partition.Build(dev, g, gridP, partition.WithCodec(graph.CodecDelta))
}

// scratch returns a fresh empty directory under the run's work directory.
func (c config) scratch(name string) (string, error) {
	if err := os.MkdirAll(c.WorkDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.WorkDir, name+"-")
}

func (c config) tracePath(workload string) string {
	return filepath.Join(c.OutDir, "trace_"+workload+".json")
}

// timedSetups runs setup cfg.Setups times, tearing down all but the last,
// and returns the last result with the cost of every set-up: the CPU time the
// process spent in user mode, not wall-clock. A set-up of the small inputs is
// a thousand fsynced file writes around a quarter second of work, and on the
// sandbox's disk the kernel's share of those doubles and halves between runs
// of one commit (1.2-2.2 s back to back), so wall-clock would report the disk.
// It is not scaled by the host factor either: a probe next to a set-up reads
// the write-back the set-up itself left running, not the host.
func timedSetups[T any](cfg config, setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var last T
	var times []float64
	for k := 0; k < max(1, cfg.Setups); k++ {
		if k > 0 {
			teardown(last)
		}
		c0 := userCPU()
		v, err := setup()
		if err != nil {
			return last, nil, err
		}
		times = append(times, (userCPU() - c0).Seconds())
		last = v
	}
	return last, times, nil
}

// userCPU is the CPU time the process has spent in user mode so far.
func userCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // cannot fail with these arguments
	}
	return time.Duration(ru.Utime.Nano())
}

// heapCounters are the allocation counters, read without stopping the world.
type heapCounters struct{ objects, bytes, live uint64 }

func readHeap() heapCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	metrics.Read(s)
	return heapCounters{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

// almostEqual is the engine-vs-reference tolerance of the repository's own
// tests for sum-style programs: 1e-9 absolute or relative.
func almostEqual(a, b float64) bool {
	const tol = 1e-9
	d := math.Abs(a - b)
	return d <= tol || d <= tol*max(math.Abs(a), math.Abs(b))
}

// sameOutputs compares an engine result to the reference: bit for bit when
// exact, within almostEqual otherwise. It returns the first differing vertex.
func sameOutputs(got, want []float64, exact bool) (int, bool) {
	if len(got) != len(want) {
		return -1, false
	}
	for v := range want {
		if got[v] == want[v] || (!exact && almostEqual(got[v], want[v])) {
			continue
		}
		return v, false
	}
	return 0, true
}
