package baseline

import (
	"fmt"
	"sync"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/iosched"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// modelled counts the bytes l's device is charged, by class, for transfers
// that touch no file: the vertex values and HUS-Graph's index consult.
func modelled(l *partition.Layout) func() (read, written int64) {
	var mu sync.Mutex
	var n [2]int64
	l.Dev.SetTracer(func(ev storage.TraceEvent) {
		if ev.Op != "charge" {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		switch ev.Class {
		case storage.SeqRead:
			n[0] += ev.Bytes
		case storage.SeqWrite:
			n[1] += ev.Bytes
		}
	})
	return func() (int64, int64) {
		mu.Lock()
		defer mu.Unlock()
		r, w := n[0], n[1]
		n = [2]int64{}
		return r, w
	}
}

func layoutFor(t *testing.T, build func(*storage.Device, *graph.Graph, int, ...partition.BuildOption) (*partition.Layout, error), g *graph.Graph) *partition.Layout {
	t.Helper()
	dev, err := storage.OpenDevice(t.TempDir(), storage.ScaledHDD)
	if err != nil {
		t.Fatal(err)
	}
	l, err := build(dev, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestHUSGraphValueChargesFollowTheFrontier: HUS-Graph is active-aware, so
// each of its paths follows GraphSD's rule — an iteration reads the values of
// its live rows and of the intervals it applies, and writes back the latter —
// with the on-demand path's index consult on top. An all-active PageRank
// iteration pays the whole array both ways; Lumos, which is not active-aware,
// pays it every pass whatever the frontier.
func TestHUSGraphValueChargesFollowTheFrontier(t *testing.T) {
	g := gen.Chain(64) // 16 per interval; 15 → 16 crosses into interval 1
	models := []iosched.Model{iosched.OnDemandIO, iosched.FullIO}
	index := func(m iosched.Model, n int) int64 {
		if m == iosched.OnDemandIO {
			return int64(n) * graph.IndexEntryBytes
		}
		return 0
	}
	for _, m := range models {
		for _, c := range []struct {
			src           int
			read, written int64 // vertices
		}{
			{15, 32, 16}, // live interval 0, applied interval 1
			{40, 16, 16}, // both interval 2
		} {
			t.Run(fmt.Sprintf("%s/%d", m, c.src), func(t *testing.T) {
				l := layoutFor(t, partition.BuildHUSGraph, g)
				charges := modelled(l)
				degrees, err := l.LoadDegrees()
				if err != nil {
					t.Fatal(err)
				}
				s := newBSPState(g.NumVertices, &algorithms.BFS{Source: graph.VertexID(c.src)}, degrees)
				if err := newHUSRun(l, s).iterate(m); err != nil {
					t.Fatal(err)
				}
				read, written := charges()
				wantRead := c.read*graph.VertexValueBytes + index(m, g.NumVertices)
				if read != wantRead || written != c.written*graph.VertexValueBytes {
					t.Fatalf("charged %d read / %d written, want %d / %d", read, written, wantRead, c.written*graph.VertexValueBytes)
				}
			})
		}
	}

	rmat, err := gen.RMAT(8, 8, gen.Graph500, 5)
	if err != nil {
		t.Fatal(err)
	}
	v := int64(rmat.NumVertices) * graph.VertexValueBytes
	for _, m := range models {
		l := layoutFor(t, partition.BuildHUSGraph, rmat)
		charges := modelled(l)
		degrees, err := l.LoadDegrees()
		if err != nil {
			t.Fatal(err)
		}
		if err := newHUSRun(l, newBSPState(rmat.NumVertices, &algorithms.PageRank{}, degrees)).iterate(m); err != nil {
			t.Fatal(err)
		}
		if read, written := charges(); read != v+index(m, rmat.NumVertices) || written != v {
			t.Errorf("%s PageRank iteration: charged %d read / %d written, want the whole array both ways", m, read, written)
		}
	}

	for name, prog := range map[string]core.Program{"pagerank": &algorithms.PageRank{Iterations: 5}, "bfs": &algorithms.BFS{Source: 0}} {
		l := layoutFor(t, partition.BuildLumos, rmat)
		charges := modelled(l)
		res, err := RunLumos(l, prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if read, written := charges(); read != int64(res.Iterations)*v || written != read {
			t.Errorf("Lumos %s: charged %d read / %d written over %d passes, want the whole array both ways each", name, read, written, res.Iterations)
		}
	}
}
