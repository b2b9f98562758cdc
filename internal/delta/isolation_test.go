package delta_test

import (
	"sync"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/delta"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/storage"
)

// TestLongJobIsolatedFromWriteBurst is the end-to-end isolation
// guarantee: a long-running job pinned before a write burst produces
// bit-identical results to the same job over a frozen copy of the
// pre-burst graph — while mutations land, memtables seal, and a
// compaction publishes a new generation mid-run, all under a 5% transient
// read-fault storm on the store's device. Checked for both BSP and async
// execution.
func TestLongJobIsolatedFromWriteBurst(t *testing.T) {
	g := testGraph(t, 250, 1500, 31)
	preBurst := mutationScript(g, 2, 30, 32)
	burst := mutationScript(delta.ApplyToGraph(g, flatten(preBurst)), 6, 30, 33)
	frozen := delta.ApplyToGraph(g, flatten(preBurst))

	for _, mode := range []struct {
		name string
		opts core.Options
	}{
		{"bsp", core.Options{DefaultBuffer: true}},
		{"async", core.Options{Async: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			first, mk := prdOrCC(mode.opts, 12)
			progs := map[string]func() core.Program{
				first: mk,
				"bfs": func() core.Program { return &algorithms.BFS{Source: 1} },
			}
			for progName, mk := range progs {
				t.Run(progName, func(t *testing.T) {
					dev := buildBase(t, g, 3, graph.CodecDelta)
					s := openStore(t, dev, delta.Options{MemtableBytes: 1024, CompactLayers: 2})
					for _, b := range preBurst {
						if err := s.Apply(b); err != nil {
							t.Fatal(err)
						}
					}
					// The reference result: same program over a fresh build
					// of the frozen graph, on a quiet device.
					want, err := core.Run(freshLayout(t, frozen, 3, graph.CodecDelta), mk(), mode.opts)
					if err != nil {
						t.Fatal(err)
					}

					// 5% transient read faults on everything the job and the
					// compactor read; the device retries past them.
					chaos := storage.NewChaos(storage.ChaosOptions{
						Seed:              34,
						TransientReadProb: 0.05,
						Match: func(op, _ string) bool {
							return op == "read" || op == "readat"
						},
					})
					dev.SetFaultInjector(chaos.Injector())
					dev.SetRetryPolicy(storage.RetryPolicy{MaxRetries: 8})

					v := s.Snapshot()
					defer v.Release()

					// The burst lands while the job runs: one batch per
					// iteration from the OnIteration hook, with seals (small
					// memtable) and an explicit mid-run compaction publish.
					var mu sync.Mutex
					next := 0
					opts := mode.opts
					opts.OnIteration = func(core.IterStat) {
						mu.Lock()
						defer mu.Unlock()
						if next < len(burst) {
							if err := s.Apply(burst[next]); err != nil {
								t.Errorf("burst batch %d: %v", next, err)
							}
							next++
						}
						if next == 3 {
							if err := s.Compact(); err != nil {
								t.Errorf("mid-run compaction: %v", err)
							}
						}
					}
					got, err := core.Run(v.Layout(), mk(), opts)
					if err != nil {
						t.Fatal(err)
					}
					if st := chaos.Stats(); st.Transient == 0 {
						t.Fatal("chaos injected no transient faults; test is vacuous")
					}
					mu.Lock()
					if next < 3 {
						t.Fatalf("burst barely started (%d batches): job too short to isolate", next)
					}
					mu.Unlock()
					for vid := range want.Outputs {
						if got.Outputs[vid] != want.Outputs[vid] {
							t.Fatalf("vertex %d = %v, want %v (snapshot leaked the burst)",
								vid, got.Outputs[vid], want.Outputs[vid])
						}
					}

					// After the run, a fresh snapshot sees every acknowledged
					// burst batch.
					dev.SetFaultInjector(nil)
					mu.Lock()
					applied := flatten(burst[:min(next, len(burst))])
					mu.Unlock()
					v2 := s.Snapshot()
					defer v2.Release()
					assertEqualLayouts(t, v2.Layout(),
						freshLayout(t, delta.ApplyToGraph(frozen, applied), 3, graph.CodecDelta))
				})
			}
		})
	}
}
