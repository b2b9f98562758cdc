package harness

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/storage"
)

// pinnedBaselines holds what the HUS-Graph and Lumos rows of the system table
// did on one R-MAT (scale 10, edge factor 8, seed 17) at P=4 on ScaledHDD:
// the device traffic per class (bytes, operations, simulated ns), the
// iteration count, convergence, HUS-Graph's per-iteration decision models
// (f full, o on-demand) and a hash of the outputs' bits. The baselines are
// the paper's comparison, so a change that moves one of these moves Figures
// 5–8; only the compute columns may differ between two commits.
var pinnedBaselines = map[string]string{
	"husgraph/PR":   "iters=5 converged=false bytes=[372736 0 40960 0] ops=[26 0 5 0] ns=[2652901 0 292570 0] models=fffff outputs=1869e54710f9702d",
	"husgraph/PR-D": "iters=20 converged=false bytes=[1478656 0 163840 0] ops=[101 0 20 0] ns=[10505686 0 1170280 0] models=ffffffffffffffffffff outputs=42ab11041766064d",
	"husgraph/CC":   "iters=5 converged=true bytes=[257055 440 34816 0] ops=[26 30 5 0] ns=[1849692 243653 248684 0] models=fffoo outputs=232c3bdc6d80bdc3",
	"husgraph/SSSP": "iters=6 converged=true bytes=[371783 8076 45056 0] ops=[28 37 6 0] ns=[2614548 363300 321827 0] models=offfoo outputs=adeb92a4f8a23eeb",
	"husgraph/BFS":  "iters=5 converged=true bytes=[199711 4768 34816 0] ops=[24 30 5 0] ns=[1435399 279720 248684 0] models=offoo outputs=5cf509e092ab37bd",
	"lumos/PR":      "iters=5 converged=false bytes=[281056 0 40960 0] ops=[66 0 5 0] ns=[2361682 0 292570 0] models= outputs=fcf58ca0445bf728",
	"lumos/PR-D":    "iters=20 converged=false bytes=[1020256 0 163840 0] ops=[241 0 20 0] ns=[8569616 0 1170280 0] models= outputs=ad1b26d5ea319e93",
	"lumos/CC":      "iters=5 converged=true bytes=[281056 0 40960 0] ops=[66 0 5 0] ns=[2361682 0 292570 0] models= outputs=232c3bdc6d80bdc3",
	"lumos/SSSP":    "iters=6 converged=true bytes=[436792 0 49152 0] ops=[73 0 6 0] ns=[3447944 0 351084 0] models= outputs=adeb92a4f8a23eeb",
	"lumos/BFS":     "iters=5 converged=true bytes=[281056 0 40960 0] ops=[66 0 5 0] ns=[2361682 0 292570 0] models= outputs=5cf509e092ab37bd",
}

// pinLine renders a baseline run's pinned outcomes on one line.
func pinLine(res *core.Result) string {
	h := sha256.New()
	for _, v := range res.Outputs {
		binary.Write(h, binary.LittleEndian, math.Float64bits(v))
	}
	var models strings.Builder
	for _, d := range res.Decisions {
		models.WriteByte(d.Model.String()[0])
	}
	return fmt.Sprintf("iters=%d converged=%t bytes=%d ops=%d ns=%d models=%s outputs=%x",
		res.Iterations, res.Converged, res.IO.Bytes, res.IO.Ops, res.IO.Time, models.String(), h.Sum(nil)[:8])
}

// TestBaselinesPinned runs every paper algorithm and BFS under both baselines,
// through the system table, and holds each run to pinnedBaselines.
func TestBaselinesPinned(t *testing.T) {
	g, err := gen.RMAT(10, 8, gen.Graph500, 17)
	if err != nil {
		t.Fatal(err)
	}
	gw := gen.Weighted(g.Clone(), 16, 18)
	cfg := &Config{}
	for _, name := range []string{"husgraph", "lumos"} {
		sys, err := cfg.system(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range append(PaperAlgorithms(), bfs) {
			key := name + "/" + alg.Name
			dev, err := storage.OpenDevice(t.TempDir(), storage.ScaledHDD)
			if err != nil {
				t.Fatal(err)
			}
			in := g
			if alg.Weighted {
				in = gw
			}
			l, err := sys.Build(dev, in, 4)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(context.Background(), l, alg.New(0), core.Options{})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := pinLine(res); got != pinnedBaselines[key] {
				t.Errorf("%s:\n got  %q\n want %q", key, got, pinnedBaselines[key])
			}
		}
	}
}
