package harness

import (
	"fmt"
	"io"
	"math"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/metrics"
	"github.com/graphsd/graphsd/internal/storage"
)

// identicalOutputs reports whether two output vectors match bit for bit.
func identicalOutputs(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// runFigSEM is the proof-of-win study for state-aware skipping and the
// compressed cache tier. Three checks, all hard-enforced:
//
//  1. Sparse frontiers — forced-full BFS and SSSP must skip dead sub-blocks
//     (BlocksSkipped > 0), so they move strictly fewer device bytes than a
//     pass that reads every cell: what they read plus what they skipped.
//     Every run skips — there is no non-skipping engine to compare with.
//  2. Dense frontiers — PR keeps every vertex active, so nothing is skipped.
//     On both kinds, a buffered run on the raw layout (residents decoded)
//     and one on the same graph's delta layout (residents kept as their
//     payloads, the compressed tier) must match the unbuffered outputs bit
//     for bit, and the delta layout's buffer — the same capacity holding
//     several times more graph — must serve at least as many secondaries.
//  3. Compressed shared tier — a compressed shared cache on the unweighted
//     graph must represent at least the expectation table's capacity_ratio
//     floor of decoded bytes per RAM byte — the multiplier it exists to
//     deliver — and a warm re-run must actually hit that tier.
//
// Device traffic is simulated, so every assertion is deterministic.
func runFigSEM(cfg *Config, w io.Writer) error {
	e, err := cfg.env("uk-sim")
	if err != nil {
		return err
	}

	workloads := []struct {
		alg      Algorithm
		frontier string
	}{
		{bfs, "sparse"},
		{PaperAlgorithms()[3], "sparse"}, // SSSP
		{PaperAlgorithms()[0], "dense"},  // PR

	}

	t := metrics.NewTable("State-aware skipping and the semi-external-memory tier — forced-full on "+e.ds.Name,
		"algorithm", "frontier", "read + skipped", "read", "saved", "blocks skipped", "hits raw / delta", "identical")
	for _, wl := range workloads {
		l, err := e.layout("graphsd", wl.alg.Weighted)
		if err != nil {
			return err
		}
		dl, err := e.layout(graphsdDelta, wl.alg.Weighted)
		if err != nil {
			return err
		}
		// No buffer under the byte columns: every cell a pass does not read is
		// then one a read-everything pass reads from the device, so read +
		// skipped is that pass's edge traffic exactly, plus the values of the
		// intervals this run touched.
		opts := core.Options{ForceModel: core.ForceFull}
		res, err := core.Run(l, wl.alg.New(e.source), opts)
		if err != nil {
			return err
		}
		// The buffered arms get an eighth of the decoded edges, as the pr_ooc
		// benchmark workload does: too little for every secondary decoded.
		opts.BufferBytes = l.Meta.EdgeBytesTotal() / 8
		buffered, err := core.Run(l, wl.alg.New(e.source), opts)
		if err != nil {
			return err
		}
		delta, err := core.Run(dl, wl.alg.New(e.source), opts)
		if err != nil {
			return err
		}

		identical := identicalOutputs(res.Outputs, buffered.Outputs) && identicalOutputs(res.Outputs, delta.Outputs) &&
			delta.Iterations == res.Iterations && delta.Converged == res.Converged
		read, skipped := res.IO.ReadBytes(), res.SEM.BlocksSkipped
		t.AddRow(wl.alg.Name, wl.frontier,
			storage.FormatBytes(read+res.SEM.BytesSkipped), storage.FormatBytes(read),
			storage.FormatBytes(res.SEM.BytesSkipped),
			fmt.Sprint(skipped), fmt.Sprintf("%d / %d", buffered.Buffer.Hits, delta.Buffer.Hits), fmt.Sprint(identical))

		if !identical {
			return fmt.Errorf("harness: %s outputs differ between the unbuffered, buffered and delta-layout runs", wl.alg.Name)
		}
		switch wl.frontier {
		case "sparse":
			if skipped == 0 || res.SEM.BytesSkipped <= 0 {
				return fmt.Errorf("harness: sparse-frontier %s skipped %d sub-blocks, %d bytes", wl.alg.Name, skipped, res.SEM.BytesSkipped)
			}
			if delta.SEM.BlocksSkipped == 0 {
				return fmt.Errorf("harness: sparse-frontier %s skipped no sub-blocks on the delta layout", wl.alg.Name)
			}
		case "dense":
			if skipped != 0 || delta.SEM.BlocksSkipped != 0 {
				return fmt.Errorf("harness: dense-frontier %s skipped %d sub-blocks (%d on the delta layout) — row activity miscounted",
					wl.alg.Name, skipped, delta.SEM.BlocksSkipped)
			}
		}
		if delta.Buffer.Hits < buffered.Buffer.Hits {
			return fmt.Errorf("harness: %s's buffer served %d secondaries as payloads, %d decoded — the compressed tier held less",
				wl.alg.Name, delta.Buffer.Hits, buffered.Buffer.Hits)
		}
	}
	t.AddNote("byte columns are from a run with no per-run buffer, where read + skipped is exactly the edges a pass that skipped nothing reads, " +
		"plus the values of the intervals the run touched — a read-everything pass reads every interval's (DESIGN.md §11); " +
		"identical compares it with runs whose buffer holds 1/8 of the decoded edges, on the raw layout (residents decoded) and on the " +
		"delta layout of the same graph (residents kept as payloads) — the latter's buffer may not serve fewer hits")

	// Compressed tier: cold run measures the capacity multiplier over every
	// sub-block offered to the tier; warm run must be served by it.
	l, err := e.layout("graphsd", false)
	if err != nil {
		return err
	}
	shared := buffer.NewSharedCompressed(l.Meta.EdgeBytesTotal())
	prProg := func() core.Program { return &algorithms.PageRank{Iterations: 5} }
	plain, err := core.Run(l, prProg(), core.Options{DefaultBuffer: true, ForceModel: core.ForceFull})
	if err != nil {
		return err
	}
	cold, err := core.Run(l, prProg(), core.Options{SharedBlocks: shared, ForceModel: core.ForceFull})
	if err != nil {
		return err
	}
	warm, err := core.Run(l, prProg(), core.Options{SharedBlocks: shared, ForceModel: core.ForceFull})
	if err != nil {
		return err
	}
	if !identicalOutputs(plain.Outputs, cold.Outputs) || !identicalOutputs(plain.Outputs, warm.Outputs) {
		return fmt.Errorf("harness: compressed-tier outputs differ from the uncached baseline")
	}
	ratio := cold.SEM.EffectiveCapacityRatio()
	t.AddNote("compressed tier — %s decoded graph held in %s RAM: %.2fx effective capacity; warm run %d compressed hits, decode %v",
		storage.FormatBytes(cold.SEM.DecodedBytes), storage.FormatBytes(cold.SEM.CompressedBytes),
		ratio, warm.SEM.CompressedHits, shared.Stats().DecodeTime.Round(1000))
	if err := t.Render(w); err != nil {
		return err
	}

	if warm.SEM.CompressedHits == 0 {
		return fmt.Errorf("harness: warm run never hit the compressed shared tier")
	}
	return cfg.hold("fig-sem", []observation{{e.ds.Name, "PR", "graphsd", "capacity_ratio", ratio}})
}
