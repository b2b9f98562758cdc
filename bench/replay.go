package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/checkpoint"
	"github.com/graphsd/graphsd/internal/delta"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/iosched"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/pipeline"
	"github.com/graphsd/graphsd/internal/storage"
	"github.com/graphsd/graphsd/internal/wal"
)

// The traced run cannot see inside an engine run, so after its ops it walks
// the same layout through the public call of each layer the engine crosses
// and times every call. These are the per-call costs behind the per-op
// totals the engine reports about itself.

// Span names of the replay; the per-layer metrics are read back from the
// trace by these names.
const (
	spanLoadBlock   = "partition.LoadSubBlockInto"
	spanReadFile    = "storage.Device.ReadFileInto"
	spanVerify      = "partition.VerifyBlockSum"
	spanDecode      = "graph.AppendDeltaBlock"
	spanLoadIndex   = "partition.LoadIndex"
	spanVertexRead  = "partition.ReadVertexEdges"
	spanSharedCold  = "buffer.Shared.GetOrLoad/cold"
	spanSharedWarm  = "buffer.Shared.GetOrLoad/warm"
	spanDrain       = "pipeline.drain"
	spanNext        = "pipeline.Next"
	spanDecide      = "iosched.Scheduler.Decide"
	spanCkptSave    = "checkpoint.Save"
	spanWALSync     = "wal.Log.Append/sync"
	spanWALNoSync   = "wal.Log.Append/nosync"
	spanDeltaApply  = "delta.Store.Apply"
	spanDeltaSeal   = "delta.Store.Seal"
	spanDeltaCompct = "delta.Store.Compact"
	spanOverlayLoad = "partition.LoadSubBlockInto/overlay"
	spanBaseLoad    = "partition.LoadSubBlockInto/compacted"
)

const (
	warmHitsPerSpan   = 64  // one warm-hit span times this many GetOrLoad calls
	vertexReadsPerRow = 128 // vertices sampled per grid row for selective reads
	maxDecideReplays  = 512
	replayBatches     = 8 // mutation batches applied to the scratch store
)

// replayCounts carries what the spans cannot: the bytes and edges the timed
// calls moved, for the per-byte and per-edge rates.
type replayCounts struct {
	blockBytes int64
	blockEdges int64
}

// replayGrid walks every non-empty sub-block of l once per layer call, under
// one root span. frontiers are the active-vertex counts the traced ops
// reported, replayed through a fresh scheduler.
func replayGrid(tr *tracer, op int, l *partition.Layout, frontiers []int) (replayCounts, error) {
	var rc replayCounts
	root := tr.begin(-1, op, "replay")
	defer tr.end(root)
	m := &l.Meta
	var dst []graph.Edge
	var buf []byte
	var err error
	var reqs []pipeline.Request
	shared := buffer.NewShared(2 * m.EdgeBytesTotal())

	for i := 0; i < m.P; i++ {
		iLo, iHi := m.Interval(i)
		for j := 0; j < m.P; j++ {
			if m.SubBlockEdges(i, j) == 0 {
				continue
			}
			name := m.BlockName(i, j)
			jLo, _ := m.Interval(j)
			reqs = append(reqs, pipeline.Request{I: i, J: j, Bytes: m.SubBlockBytes(i, j)})

			// The real call, once unrecorded so both it and its parts below
			// run on a warm block.
			if dst, buf, err = l.LoadSubBlockInto(i, j, dst, buf); err != nil {
				return rc, err
			}
			load := tr.begin(root, op, spanLoadBlock)
			dst, buf, err = l.LoadSubBlockInto(i, j, dst, buf)
			tr.end(load)
			if err != nil {
				return rc, err
			}
			// Its three steps, each through its own public function.
			t0 := time.Now()
			if buf, err = l.Dev.ReadFileInto(name, buf); err != nil {
				return rc, err
			}
			t1 := time.Now()
			if err = m.VerifyBlockSum(i, j, buf); err != nil {
				return rc, err
			}
			t2 := time.Now()
			if dst, err = graph.AppendDeltaBlock(dst[:0], buf, graph.VertexID(iLo), graph.VertexID(jLo), m.Weighted); err != nil {
				return rc, err
			}
			t3 := time.Now()
			tr.attribute(load, []string{spanReadFile, spanVerify, spanDecode},
				[]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)})
			rc.blockBytes += int64(len(buf))
			rc.blockEdges += int64(len(dst))

			// Selective path: the block's index, then a spread of the row's
			// vertices read one by one as SCIU does.
			s := tr.begin(root, op, spanLoadIndex)
			idx, err := l.LoadIndex(i, j)
			tr.end(s)
			if err != nil {
				return rc, err
			}
			r, err := l.OpenSubBlock(i, j)
			if err != nil {
				return rc, err
			}
			stride := max(1, (iHi-iLo)*m.P/vertexReadsPerRow)
			for v := iLo; v < iHi; v += stride {
				s := tr.begin(root, op, spanVertexRead)
				_, buf, err = l.ReadVertexEdges(r, idx, i, graph.VertexID(v), buf)
				tr.end(s)
				if err != nil {
					r.Close()
					return rc, err
				}
			}
			r.Close()

			// Shared cache: one miss that loads through the layout, then hits.
			key := buffer.Key{I: i, J: j}
			loader := func() ([]graph.Edge, int64, error) {
				edges, err := l.LoadSubBlock(i, j)
				return edges, m.SubBlockDiskBytes(i, j), err
			}
			s = tr.begin(root, op, spanSharedCold)
			_, _, err = shared.GetOrLoad(key, loader)
			tr.end(s)
			if err != nil {
				return rc, err
			}
			s = tr.begin(root, op, spanSharedWarm)
			for k := 0; k < warmHitsPerSpan; k++ {
				if _, hit, err := shared.GetOrLoad(key, loader); err != nil || !hit {
					tr.end(s)
					return rc, fmt.Errorf("replay: warm GetOrLoad(%d,%d): hit=%v err=%v", i, j, hit, err)
				}
			}
			tr.end(s)
		}
	}

	// One prefetcher drain over the grid with the engine's default window.
	drain := tr.begin(root, op, spanDrain)
	pf := pipeline.New(reqs, func(rq pipeline.Request) ([]graph.Edge, error) {
		return l.LoadSubBlock(rq.I, rq.J)
	}, pipeline.Options{Depth: 4, Bytes: 16 << 20})
	for range reqs {
		s := tr.begin(drain, op, spanNext)
		_, _, err := pf.Next()
		tr.end(s)
		if err != nil {
			pf.Close()
			tr.end(drain)
			return rc, err
		}
	}
	pf.Close()
	tr.end(drain)

	return rc, replayDecide(tr, root, op, l, frontiers)
}

// replayDecide times Scheduler.Decide on frontiers of the recorded sizes.
// Only a frontier's size is visible from outside the engine, so each is
// rebuilt as that many evenly spaced vertices.
func replayDecide(tr *tracer, root, op int, l *partition.Layout, frontiers []int) error {
	m := &l.Meta
	sched, err := iosched.New(iosched.Config{
		Profile:           l.Dev.Profile(),
		NumVertices:       m.NumVertices,
		NumEdges:          m.NumEdges,
		EdgeRecordBytes:   m.EdgeRecordBytes(),
		EdgeBytesOnDisk:   m.EdgeDiskBytesTotal(),
		EdgeBytesOnDemand: m.SelectiveDiskBytesTotal(),
		P:                 m.P,
		BlocksPerRow:      m.NonEmptyBlocksPerRow(),
	})
	if err != nil {
		return err
	}
	degrees, err := l.LoadDegrees()
	if err != nil {
		return err
	}
	if len(frontiers) > maxDecideReplays {
		frontiers = frontiers[:maxDecideReplays]
	}
	active := bitset.NewActiveSet(m.NumVertices)
	for it, size := range frontiers {
		active.Reset()
		if size >= m.NumVertices {
			active.ActivateAll()
		} else if size > 0 {
			for k := 0; k < size; k++ {
				active.Activate(int(int64(k) * int64(m.NumVertices) / int64(size)))
			}
		}
		s := tr.begin(root, op, spanDecide)
		sched.Decide(it, active, degrees)
		tr.end(s)
	}
	return nil
}

// durabilityCounts carries the byte counts of the delta-store replay.
type durabilityCounts struct {
	compactBytes int64   // device bytes written by the compaction
	writeAmp     float64 // WAL + seal + compaction bytes per byte of mutation payload
}

// mutationPayloadBytes is what one mutation carries: src, dst, weight.
const mutationPayloadBytes = 12

// replayDurability times the layers only a serving, mutable graph enters —
// checkpoint, WAL, delta store — on scratch copies under dir, sized like the
// served graph g.
func replayDurability(tr *tracer, op int, dir string, g *graph.Graph, p int, seed int64) (dc durabilityCounts, err error) {
	root := tr.begin(-1, op, "replay.durability")
	defer tr.end(root)

	// The journaled server checkpoints a job after every iteration.
	n := g.NumVertices
	words := make([]uint64, (n+63)/64)
	state := &checkpoint.State{Algorithm: "pagerank", NumVertices: n, P: p, Iteration: 1,
		Values: make([]float64, n), AccNext: make([]float64, n), Active: words, TouchedNext: words}
	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		return dc, err
	}
	for k := 0; k < 16; k++ {
		s := tr.begin(root, op, spanCkptSave)
		err := checkpoint.Save(ckptDir, state)
		tr.end(s)
		if err != nil {
			return dc, err
		}
	}

	// A frame the size of a job record, with and without the fsync.
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Prefix: "bench", Magic: [8]byte{'G', 'S', 'D', 'B', 'N', 'C', 'H', '1'}})
	if err != nil {
		return dc, err
	}
	frame := make([]byte, 256)
	for k := 0; k < 32; k++ {
		s := tr.begin(root, op, spanWALSync)
		err := log.Append(frame, true)
		tr.end(s)
		if err != nil {
			log.Close()
			return dc, err
		}
	}
	for k := 0; k < 256; k++ {
		s := tr.begin(root, op, spanWALNoSync)
		err := log.Append(frame, false)
		tr.end(s)
		if err != nil {
			log.Close()
			return dc, err
		}
	}
	if err := log.Close(); err != nil {
		return dc, err
	}

	// A scratch store over a fresh copy of the served graph: apply, seal,
	// read through the sealed overlay, compact, read the same blocks again.
	dev, err := storage.OpenDevice(filepath.Join(dir, "delta"), storage.ScaledHDD)
	if err != nil {
		return dc, err
	}
	if _, err := partition.Build(dev, g, p, partition.WithCodec(graph.CodecDelta)); err != nil {
		return dc, err
	}
	// A memtable that never fills, so the seal happens where it is timed.
	store, err := delta.Open(dev, delta.Options{MemtableBytes: 1 << 30})
	if err != nil {
		return dc, err
	}
	defer store.Close()
	written := dev.Stats()
	r := newRNG(seed, 300)
	for k := 0; k < replayBatches; k++ {
		b := randomBatch(r, g.NumVertices)
		s := tr.begin(root, op, spanDeltaApply)
		err := store.Apply(b)
		tr.end(s)
		if err != nil {
			return dc, err
		}
	}
	s := tr.begin(root, op, spanDeltaSeal)
	err = store.Seal()
	tr.end(s)
	if err != nil {
		return dc, err
	}
	loadAll := func(name string) error {
		v := store.Snapshot()
		defer v.Release()
		l := v.Layout()
		var dst []graph.Edge
		var buf []byte
		s := tr.begin(root, op, name)
		defer tr.end(s)
		for i := 0; i < l.Meta.P; i++ {
			for j := 0; j < l.Meta.P; j++ {
				if dst, buf, err = l.LoadSubBlockInto(i, j, dst, buf); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := loadAll(spanOverlayLoad); err != nil {
		return dc, err
	}
	before := dev.Stats()
	s = tr.begin(root, op, spanDeltaCompct)
	err = store.Compact()
	tr.end(s)
	if err != nil {
		return dc, err
	}
	after := dev.Stats()
	dc.compactBytes = after.Sub(before).WriteBytes()
	dc.writeAmp = float64(store.Stats().WAL.Bytes+after.Sub(written).WriteBytes()) /
		float64(replayBatches*mutationBatch*mutationPayloadBytes)
	return dc, loadAll(spanBaseLoad)
}

// layerMetricsFromTrace turns the replay spans into the per-call metrics.
func layerMetricsFromTrace(ms metricSet, tr *tracer, rc replayCounts) {
	total, self, count := sumByName(tr.spans)
	perCall := func(metric, name string, unit float64, calls int) {
		if n := count[name] * calls; n > 0 {
			ms.set(metric, float64(total[name])/float64(n)/unit, n)
		}
	}
	const us = 1e3
	if rc.blockBytes > 0 {
		ms.set("storage.read_ns_per_byte", float64(total[spanReadFile])/float64(rc.blockBytes), count[spanReadFile])
		ms.set("partition.verify_ns_per_byte", float64(total[spanVerify])/float64(rc.blockBytes), count[spanVerify])
	}
	if rc.blockEdges > 0 {
		ms.set("graph.decode_ns_per_edge", float64(total[spanDecode])/float64(rc.blockEdges), count[spanDecode])
	}
	perCall("partition.load_block_us", spanLoadBlock, us, 1)
	if n := count[spanLoadBlock]; n > 0 {
		ms.set("partition.load_self_us", float64(self[spanLoadBlock])/float64(n)/us, n)
	}
	perCall("partition.index_load_us", spanLoadIndex, us, 1)
	perCall("partition.vertex_read_us", spanVertexRead, us, 1)
	perCall("buffer.shared_hit_ns", spanSharedWarm, 1, warmHitsPerSpan)
	perCall("iosched.decide_us", spanDecide, us, 1)
	perCall("checkpoint.save_us", spanCkptSave, us, 1)
	perCall("wal.append_sync_us", spanWALSync, us, 1)
	perCall("wal.append_nosync_us", spanWALNoSync, us, 1)
	perCall("delta.apply_us_per_mutation", spanDeltaApply, us, mutationBatch)
	perCall("delta.seal_s", spanDeltaSeal, 1e9, 1)
	perCall("delta.compact_s", spanDeltaCompct, 1e9, 1)
	if total[spanBaseLoad] > 0 {
		ms.set("delta.overlay_load_ratio", float64(total[spanOverlayLoad])/float64(total[spanBaseLoad]), 1)
	}
}
