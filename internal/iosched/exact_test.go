package iosched_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/iosched"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// These tests pin the tentpole claim of the corrected cost model: for graph
// layouts where the estimator's uniformity conditions hold (constant on-disk
// bytes per edge, and every edge-bearing vertex storing edges in every
// non-empty sub-block of its row), EstimateOnDemand's byte and seek totals
// equal the device's OWN charges for the selective access pattern — not
// approximately, by construction.
//
// The graph family: P=4 intervals, every non-isolated vertex has exactly one
// edge to the first vertex of each used column interval. Under the raw codec
// every edge is a fixed-size record; under delta every per-vertex run in
// every cell is src-varint + runlen-varint + one zero gap varint = 3 bytes.
// A random subset of vertices is isolated (degree zero), exercising the
// gap-merge logic, and random frontiers exercise portion splits at interval
// boundaries and at edge-bearing gaps.

// exactGraph builds the uniform family. numV must be a positive multiple of
// 4 and at most 252 (so per-interval vertex ids fit one varint byte).
func exactGraph(numV int, usedCols []int, isolated map[int]bool, weighted bool) *graph.Graph {
	per := numV / 4
	g := &graph.Graph{NumVertices: numV, Weighted: weighted}
	for v := 0; v < numV; v++ {
		if isolated[v] {
			continue
		}
		for _, c := range usedCols {
			e := graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(c * per)}
			if weighted {
				e.Weight = float32(v%7) + 0.5
			}
			g.Edges = append(g.Edges, e)
		}
	}
	return g
}

// replicateSelectiveReads performs the SCIU access pattern against the real
// device: for every interval row holding an active vertex, for every
// non-empty sub-block of that row, open a fresh reader and read each active
// vertex's edges in vertex order. Index loads happen before the caller's
// snapshot, so the measured delta is the edge traffic alone — the quantity
// EstimateOnDemand models. Returns the number of decoded edges as a sanity
// anchor.
func replicateSelectiveReads(t *testing.T, l *partition.Layout, active *bitset.ActiveSet, indexes map[[2]int]*partition.Index) int {
	t.Helper()
	decoded := 0
	for i := 0; i < l.Meta.P; i++ {
		lo, hi := l.Meta.Interval(i)
		if active.CountRange(lo, hi) == 0 {
			continue
		}
		for j := 0; j < l.Meta.P; j++ {
			if l.Meta.SubBlockEdges(i, j) == 0 {
				continue
			}
			r, err := l.OpenSubBlock(i, j)
			if err != nil {
				t.Fatal(err)
			}
			idx := indexes[[2]int{i, j}]
			var buf []byte
			active.ForEachRange(lo, hi, func(v int) bool {
				var edges []graph.Edge
				edges, buf, err = l.ReadVertexEdges(r, idx, i, graph.VertexID(v), buf)
				if err != nil {
					t.Fatalf("reading vertex %d in (%d,%d): %v", v, i, j, err)
				}
				decoded += len(edges)
				return true
			})
			r.Close()
		}
	}
	return decoded
}

// schedulerFor mirrors the engine's scheduler construction from a layout.
func schedulerFor(t *testing.T, l *partition.Layout) *iosched.Scheduler {
	t.Helper()
	s, err := iosched.New(iosched.Config{
		Profile:           l.Dev.Profile(),
		NumVertices:       l.Meta.NumVertices,
		NumEdges:          l.Meta.NumEdges,
		EdgeRecordBytes:   l.Meta.EdgeRecordBytes(),
		EdgeBytesOnDisk:   l.Meta.EdgeDiskBytesTotal(),
		EdgeBytesOnDemand: l.Meta.SelectiveDiskBytesTotal(),
		P:                 l.Meta.P,
		BlocksPerRow:      l.Meta.NonEmptyBlocksPerRow(),
		RowDiskBytes:      l.Meta.RowDiskBytes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEstimateMatchesDeviceCharges(t *testing.T) {
	variants := []struct {
		name     string
		codec    graph.Codec
		weighted bool
	}{
		{"raw", graph.CodecRaw, false},
		{"raw-weighted", graph.CodecRaw, true},
		// Weighted delta splits each vertex read into a run read plus a
		// weight-column read, breaking the model's one-stream-per-portion
		// assumption, so the exactness family is unweighted there.
		{"delta", graph.CodecDelta, false},
	}
	for _, vt := range variants {
		t.Run(vt.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x5eed + int64(len(vt.name))))
			for trial := 0; trial < 25; trial++ {
				t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
					numV := 4 * (1 + rng.Intn(63)) // 4..252
					cols := rng.Perm(4)[:1+rng.Intn(4)]
					isolated := map[int]bool{}
					for v := 0; v < numV; v++ {
						if rng.Intn(4) == 0 {
							isolated[v] = true
						}
					}
					g := exactGraph(numV, cols, isolated, vt.weighted)
					if len(g.Edges) == 0 {
						t.Skip("all vertices isolated")
					}
					dev, err := storage.OpenDevice(t.TempDir(), storage.HDD)
					if err != nil {
						t.Fatal(err)
					}
					l, err := partition.Build(dev, g, 4, partition.WithCodec(vt.codec))
					if err != nil {
						t.Fatal(err)
					}
					sched := schedulerFor(t, l)
					deg := g.OutDegrees()

					// A random frontier, plus the adversarial corners.
					frontiers := []*bitset.ActiveSet{
						bitset.NewActiveSet(numV), // filled randomly below
						bitset.NewActiveSet(numV), // all active
						bitset.NewActiveSet(numV), // alternating
					}
					for v := 0; v < numV; v++ {
						if rng.Intn(3) > 0 {
							frontiers[0].Activate(v)
						}
						if v%2 == 0 {
							frontiers[2].Activate(v)
						}
					}
					frontiers[1].ActivateAll()

					// Preload the per-block indexes so the measured delta
					// below contains edge reads only.
					indexes := map[[2]int]*partition.Index{}
					for i := 0; i < l.Meta.P; i++ {
						for j := 0; j < l.Meta.P; j++ {
							if l.Meta.SubBlockEdges(i, j) == 0 {
								continue
							}
							idx, err := l.LoadIndex(i, j)
							if err != nil {
								t.Fatal(err)
							}
							indexes[[2]int{i, j}] = idx
						}
					}

					for fi, active := range frontiers {
						seqB, ranB, seeks := sched.EstimateOnDemand(active, deg)
						before := dev.Stats()
						replicateSelectiveReads(t, l, active, indexes)
						io := dev.Stats().Sub(before)

						if io.Bytes[storage.RandRead] != ranB {
							t.Errorf("frontier %d: random bytes: predicted %d, device charged %d",
								fi, ranB, io.Bytes[storage.RandRead])
						}
						if io.Bytes[storage.SeqRead] != seqB {
							t.Errorf("frontier %d: sequential bytes: predicted %d, device charged %d",
								fi, seqB, io.Bytes[storage.SeqRead])
						}
						if io.Ops[storage.RandRead] != seeks {
							t.Errorf("frontier %d: seeks: predicted %d, device performed %d",
								fi, seeks, io.Ops[storage.RandRead])
						}
						// Time agrees up to the device's per-op nanosecond
						// truncation.
						prof := dev.Profile()
						predRan := prof.SeqCost(storage.RandRead, ranB) + time.Duration(seeks)*prof.SeekLatency
						if diff := (predRan - io.Time[storage.RandRead]).Abs(); diff > time.Duration(seeks+1) {
							t.Errorf("frontier %d: random time off by %v over %d ops", fi, diff, seeks)
						}
						predSeq := prof.SeqCost(storage.SeqRead, seqB)
						if diff := (predSeq - io.Time[storage.SeqRead]).Abs(); diff > time.Duration(io.Ops[storage.SeqRead]+1) {
							t.Errorf("frontier %d: sequential time off by %v over %d ops", fi, diff, io.Ops[storage.SeqRead])
						}
					}
				})
			}
		})
	}
}
