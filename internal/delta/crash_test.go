package delta_test

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"github.com/graphsd/graphsd/internal/delta"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/server"
	"github.com/graphsd/graphsd/internal/storage"
)

// TestCrashPointSweep kills the write path at 20 distinct points — WAL
// appends, delta-layer writes, manifest publishes, compaction rewrites —
// and verifies after each simulated crash that a reopened store holds
// exactly the acknowledged mutations: zero acknowledged-write loss, no
// resurrection of unacknowledged batches, and no orphan files.
func TestCrashPointSweep(t *testing.T) {
	g := testGraph(t, 100, 500, 41)
	script := mutationScript(g, 10, 15, 42)

	ackedMuts := 0 // over all crash points
	for point := 0; point < 20; point++ {
		crashAfter := int64(2 + point*2) // ops 2,4,...,40 across the write path
		dir := t.TempDir()
		dev, err := storage.OpenDevice(dir, storage.SSD)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := partition.Build(dev, g, 2); err != nil {
			t.Fatal(err)
		}
		// Count only mutating ops (device writes + WAL appends) toward the
		// crash point, so every point lands inside the durability path.
		chaos := storage.NewChaos(storage.ChaosOptions{
			Seed:          int64(point),
			CrashAfterOps: crashAfter,
			Match: func(op, _ string) bool {
				return op == "write" || op == "append"
			},
		})
		s, err := delta.Open(dev, delta.Options{MemtableBytes: 1, CompactLayers: 2})
		if err != nil {
			t.Fatal(err)
		}
		dev.SetFaultInjector(chaos.Injector())
		s.SetWALFaultInjector(chaos.Injector())

		var acked []delta.Mutation
		for k, b := range script {
			if err := s.Apply(b); err != nil {
				break // crashed: nothing from this batch was acknowledged
			}
			acked = append(acked, b...)
			if k%3 == 2 {
				// Compaction errors are not acknowledgement losses.
				_ = s.Compact()
			}
		}
		s.Close()

		// "Restart": clean device handle over the same directory; the WAL
		// and manifest on disk are all that survive.
		dev2, err := storage.OpenDevice(dir, storage.SSD)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := delta.Open(dev2, delta.Options{})
		if err != nil {
			t.Fatalf("crash point %d (op %d): reopen failed: %v", point, crashAfter, err)
		}
		v := s2.Snapshot()
		assertEqualLayouts(t, v.Layout(),
			freshLayout(t, delta.ApplyToGraph(g, acked), 2, graph.CodecRaw))
		v.Release()

		// Orphan sweep: nothing unreferenced left behind by the crash.
		s3 := s2.Stats()
		names, err := dev2.List()
		if err != nil {
			t.Fatal(err)
		}
		live := int64(0)
		for _, n := range names {
			if strings.HasPrefix(n, "delta/") {
				live++
			}
		}
		if s3.Layers == 0 && live != 0 {
			t.Fatalf("crash point %d: %d orphan delta files after recovery sweep", point, live)
		}
		s2.Close()

		ackedMuts += len(acked)
	}
	if ackedMuts == 0 {
		t.Fatal("no batch was ever acknowledged; crash points all landed before the first append")
	}
}

// TestTornWALTailTruncatedCleanly tears a mutation-WAL append mid-frame
// (the on-disk signature of a crash during a write): the torn batch was
// never acknowledged, and a reopened store must truncate the tail, keep
// every earlier acknowledged batch, and accept new writes.
func TestTornWALTailTruncatedCleanly(t *testing.T) {
	g := testGraph(t, 80, 400, 43)
	dir := t.TempDir()
	dev, err := storage.OpenDevice(dir, storage.SSD)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partition.Build(dev, g, 2); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dev, delta.Options{})
	batches := mutationScript(g, 4, 20, 44)
	for _, b := range batches[:3] {
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	torn := false
	s.SetWALFaultInjector(func(op, _ string) error {
		if op == "append" && !torn {
			torn = true
			return storage.ErrTornWrite
		}
		return nil
	})
	if err := s.Apply(batches[3]); !errors.Is(err, delta.ErrWALUnavailable) {
		t.Fatalf("torn append returned %v, want ErrWALUnavailable", err)
	}
	// The log is sticky-failed: later writes are refused, never half-acked.
	if err := s.Apply(batches[3]); err == nil {
		t.Fatal("append after WAL failure succeeded")
	}
	s.Close()

	dev2, err := storage.OpenDevice(dir, storage.SSD)
	if err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dev2, delta.Options{})
	if st := s2.Stats(); st.WAL.ReplayTruncated == 0 {
		t.Fatal("replay did not report the torn tail")
	}
	v := s2.Snapshot()
	assertEqualLayouts(t, v.Layout(),
		freshLayout(t, delta.ApplyToGraph(g, flatten(batches[:3])), 2, graph.CodecRaw))
	v.Release()
	// The recovered store keeps accepting mutations.
	if err := s2.Apply(batches[3]); err != nil {
		t.Fatal(err)
	}
	v2 := s2.Snapshot()
	defer v2.Release()
	assertEqualLayouts(t, v2.Layout(),
		freshLayout(t, delta.ApplyToGraph(g, flatten(batches)), 2, graph.CodecRaw))
}

// TestHostileWALFrameNotReplayed plants a CRC-valid batch frame that Apply
// would have refused — an insert from a vertex beyond the graph — after an
// acknowledged batch. Replay must treat it as a bad tail, not resolve it
// against the grid: the store opens with the acknowledged batch alone and
// keeps accepting writes, and a server over the same directory starts.
func TestHostileWALFrameNotReplayed(t *testing.T) {
	g, err := gen.RMAT(7, 4, gen.Graph500, 46)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dev, err := storage.OpenDevice(dir, storage.SSD)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partition.Build(dev, g, 3); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dev, delta.Options{})
	batches := mutationScript(g, 2, 10, 47)
	if err := s.Apply(batches[0]); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().MutationsTotal
	s.Close()
	hostile := []delta.Mutation{{Op: delta.OpInsert, Src: graph.VertexID(g.NumVertices + 1000), Dst: 0}}
	if err := delta.AppendWALBatch(filepath.Join(dir, "wal"), 2, hostile, g.Weighted); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dev, delta.Options{})
	st := s2.Stats()
	if st.MutationsTotal != before {
		t.Fatalf("MutationsTotal %d after reopening, want %d: the hostile frame was applied", st.MutationsTotal, before)
	}
	if st.WAL.ReplayTruncated == 0 {
		t.Fatal("replay did not report the rejected frame")
	}
	if err := s2.Apply(batches[1]); err != nil {
		t.Fatalf("Apply after reopening: %v", err)
	}
	v := s2.Snapshot()
	assertEqualLayouts(t, v.Layout(), freshLayout(t, delta.ApplyToGraph(g, flatten(batches)), 3, graph.CodecRaw))
	v.Release()
	s2.Close()

	srv, err := server.New(server.Config{Graphs: []server.GraphConfig{{Name: "m", Dir: dir, Profile: storage.SSD, Mutable: true}}})
	if err != nil {
		t.Fatalf("server.New over the directory: %v", err)
	}
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionCrashLeavesOldGeneration crashes the device partway
// through a compaction's block rewrites: the manifest publish never
// happens, so a reopened store still serves the old generation plus
// layers, and the half-written new-generation files are swept as orphans.
func TestCompactionCrashLeavesOldGeneration(t *testing.T) {
	g := testGraph(t, 100, 600, 45)
	dir := t.TempDir()
	dev, err := storage.OpenDevice(dir, storage.SSD)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partition.Build(dev, g, 3); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dev, delta.Options{MemtableBytes: 1})
	batches := mutationScript(g, 3, 25, 46)
	for _, b := range batches {
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	// Crash after the second compaction write: some generation-1 block
	// files land, the manifest rename never does.
	chaos := storage.NewChaos(storage.ChaosOptions{
		CrashAfterOps: 2,
		Match:         func(op, _ string) bool { return op == "write" },
	})
	dev.SetFaultInjector(chaos.Injector())
	if err := s.Compact(); err == nil {
		t.Fatal("compaction survived the crash injector")
	}
	s.Close()

	dev2, err := storage.OpenDevice(dir, storage.SSD)
	if err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dev2, delta.Options{})
	if st := s2.Stats(); st.Generation != 0 {
		t.Fatalf("generation = %d after crashed compaction, want 0", st.Generation)
	}
	v := s2.Snapshot()
	defer v.Release()
	assertEqualLayouts(t, v.Layout(),
		freshLayout(t, delta.ApplyToGraph(g, flatten(batches)), 3, graph.CodecRaw))
	names, err := dev2.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasPrefix(n, "blocks/g") || strings.HasPrefix(n, "degrees_g") {
			t.Fatalf("orphan new-generation file %s survived the recovery sweep", n)
		}
	}
	// The interrupted compaction can be retried to completion.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Generation != 1 || st.Layers != 0 {
		t.Fatalf("retried compaction: generation=%d layers=%d, want 1/0", st.Generation, st.Layers)
	}
}
