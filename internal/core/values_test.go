package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// stepCharges records, per step of a run, the bytes and operations the device
// is charged for modelled transfers — the vertex values and SCIU's index,
// which touch no file — by class.
type stepCharges struct {
	mu    sync.Mutex
	step  int
	bytes []map[storage.Class]int64
	ops   []map[storage.Class]int
	paths []string
}

// watch installs the recorder on l's device and returns opts with the step
// counter hooked in.
func (c *stepCharges) watch(l *partition.Layout, opts core.Options) core.Options {
	c.bytes = []map[storage.Class]int64{{}}
	c.ops = []map[storage.Class]int{{}}
	l.Dev.SetTracer(func(ev storage.TraceEvent) {
		if ev.Op != "charge" {
			return
		}
		c.mu.Lock()
		c.bytes[c.step][ev.Class] += ev.Bytes
		c.ops[c.step][ev.Class]++
		c.mu.Unlock()
	})
	opts.OnIteration = func(st core.IterStat) {
		c.mu.Lock()
		c.paths = append(c.paths, st.Path)
		c.step++
		c.bytes = append(c.bytes, map[storage.Class]int64{})
		c.ops = append(c.ops, map[storage.Class]int{})
		c.mu.Unlock()
	}
	return opts
}

// total is what the whole run was charged in class c.
func (c *stepCharges) total(class storage.Class) int64 {
	var n int64
	for _, step := range c.bytes {
		n += step[class]
	}
	return n
}

// valuePaths are the three BSP pass drivers, each forced on the first step.
var valuePaths = []struct {
	name, path string
	opts       core.Options
	index      bool // SCIU also consults the live rows' index
}{
	{"fciu", "fciu-1", core.Options{ForceModel: core.ForceFull}, false},
	{"full-single", "full-single", core.Options{ForceModel: core.ForceFull, DisableCrossIteration: true}, false},
	{"sciu", "sciu", core.Options{ForceModel: core.ForceOnDemand}, true},
}

// TestValueChargesFollowTheFrontier: a BSP pass reads the values of its live
// rows and of the intervals its apply phase visits, and writes back the
// latter — on every path, SCIU adding its live rows' index. A BFS's first
// step has one active vertex, so it touches the source's interval and those
// of the source's out-neighbours, which apply visits. A PageRank pass touches
// everything and pays the paper's constant: the whole array each way in one
// transfer, so a run moves, to the byte and the nanosecond, what it moved when
// every pass was charged |V| both ways.
func TestValueChargesFollowTheFrontier(t *testing.T) {
	for _, g := range []struct {
		name    string
		g       *graph.Graph
		sources []int
	}{
		// Four rows of 16 per interval: 88 sits inside interval 1, 120 on its
		// last row, next to interval 2.
		{"grid", gen.Grid(16), []int{88, 120}},
		// 15 → 16 crosses from interval 0 into interval 1, which the pass
		// applies without holding an active vertex, and does not apply the
		// live interval 0.
		{"chain", gen.Chain(64), []int{15, 40}},
	} {
		for _, p := range valuePaths {
			for _, src := range g.sources {
				t.Run(fmt.Sprintf("%s/%s/%d", g.name, p.name, src), func(t *testing.T) {
					l := codecLayout(t, g.g, 4, graph.CodecRaw)
					m := &l.Meta
					live, applied := make([]bool, m.P), make([]bool, m.P)
					live[m.IntervalOf(graph.VertexID(src))] = true
					for _, e := range g.g.Edges {
						if int(e.Src) == src {
							applied[m.IntervalOf(e.Dst)] = true
						}
					}
					var read, written, indexed int64
					for i := 0; i < m.P; i++ {
						n := int64(m.IntervalLen(i)) * graph.VertexValueBytes
						if live[i] || applied[i] {
							read += n
						}
						if applied[i] {
							written += n
						}
						if live[i] && p.index {
							indexed += int64(m.IntervalLen(i)) * graph.IndexEntryBytes
						}
					}
					if written == int64(m.NumVertices)*graph.VertexValueBytes {
						t.Fatal("the first step applies every interval: nothing to show")
					}
					var c stepCharges
					if _, err := core.Run(l, &algorithms.BFS{Source: graph.VertexID(src)}, c.watch(l, p.opts)); err != nil {
						t.Fatal(err)
					}
					if c.paths[0] != p.path {
						t.Fatalf("first step took %s, want %s", c.paths[0], p.path)
					}
					if got := c.bytes[0]; got[storage.SeqRead] != read+indexed || got[storage.SeqWrite] != written {
						t.Fatalf("first step charged %d read / %d written, want %d values + %d index / %d",
							got[storage.SeqRead], got[storage.SeqWrite], read, indexed, written)
					}
				})
			}
		}
	}

	// PageRank on a layout every path of which was measured while each pass
	// paid |V| both ways.
	parent := map[string]struct {
		bytes int64
		time  time.Duration
	}{
		"fciu":        {161536, 1574639},
		"full-single": {206848, 2036713},
		"sciu":        {163889, 1644124},
	}
	for _, p := range valuePaths {
		l := chaosLayout(t, graph.CodecRaw, 11)
		var c stepCharges
		res, err := core.Run(l, &algorithms.PageRank{Iterations: 5}, c.watch(l, p.opts))
		if err != nil {
			t.Fatal(err)
		}
		v := int64(l.Meta.NumVertices) * graph.VertexValueBytes
		for k := 0; k < res.Iterations; k++ {
			read, reads := c.bytes[k][storage.SeqRead], c.ops[k][storage.SeqRead]
			if p.index {
				read, reads = read-int64(l.Meta.NumVertices)*graph.IndexEntryBytes, reads-1
			}
			if read != v || reads != 1 || c.bytes[k][storage.SeqWrite] != v || c.ops[k][storage.SeqWrite] != 1 {
				t.Fatalf("%s step %d: values charged %d read in %d ops / %d written in %d, want %d in one each way",
					p.name, k, read, reads, c.bytes[k][storage.SeqWrite], c.ops[k][storage.SeqWrite], v)
			}
		}
		if want := parent[p.name]; res.IO.TotalBytes() != want.bytes || res.IO.TotalTime() != want.time {
			t.Errorf("%s: %d bytes in %v, want the dense constant's %d in %v",
				p.name, res.IO.TotalBytes(), res.IO.TotalTime(), want.bytes, want.time)
		}
	}
}
