package gen

import (
	"math"
	"sort"
	"testing"

	"github.com/graphsd/graphsd/internal/graph"
)

func TestRMATShape(t *testing.T) {
	g, err := RMAT(10, 16, Graph500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != 1024 {
		t.Fatalf("vertices = %d, want 1024", g.NumVertices)
	}
	if g.NumEdges() != 1024*16 {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), 1024*16)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRMATDeterministic(t *testing.T) {
	a, _ := RMAT(8, 8, Graph500, 42)
	b, _ := RMAT(8, 8, Graph500, 42)
	c, _ := RMAT(8, 8, Graph500, 43)
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("same seed diverged at edge %d", i)
		}
	}
	same := true
	for i := range a.Edges {
		if a.Edges[i] != c.Edges[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestRMATSkew(t *testing.T) {
	// R-MAT with Graph500 parameters must produce heavy-tailed out-degrees:
	// the top 1% of vertices should own far more than 1% of the edges.
	g, err := RMAT(12, 16, Graph500, 7)
	if err != nil {
		t.Fatal(err)
	}
	deg := g.OutDegrees()
	sorted := make([]int, len(deg))
	for i, d := range deg {
		sorted[i] = int(d)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	top := len(sorted) / 100
	sumTop := 0
	for _, d := range sorted[:top] {
		sumTop += d
	}
	frac := float64(sumTop) / float64(g.NumEdges())
	if frac < 0.10 {
		t.Fatalf("top 1%% of vertices own only %.1f%% of edges; want heavy tail", frac*100)
	}
}

func TestRMATValidation(t *testing.T) {
	if _, err := RMAT(-1, 8, Graph500, 0); err == nil {
		t.Error("negative scale accepted")
	}
	if _, err := RMAT(31, 8, Graph500, 0); err == nil {
		t.Error("scale 31 accepted")
	}
	if _, err := RMAT(4, -1, Graph500, 0); err == nil {
		t.Error("negative edge factor accepted")
	}
	if _, err := RMAT(4, 8, RMATParams{A: 0.9, B: 0.9, C: 0.1, D: 0.1}, 0); err == nil {
		t.Error("probabilities summing to 2 accepted")
	}
	if _, err := RMAT(4, 8, RMATParams{A: 0.5, B: 0.5, C: -0.1, D: 0.1}, 0); err == nil {
		t.Error("negative probability accepted")
	}
}

func TestErdosRenyi(t *testing.T) {
	g, err := ErdosRenyi(100, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != 100 || g.NumEdges() != 500 {
		t.Fatalf("got %d vertices %d edges", g.NumVertices, g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := ErdosRenyi(0, 5, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := ErdosRenyi(5, -1, 0); err == nil {
		t.Error("negative m accepted")
	}
}

func TestPowerLawSkewAndValidation(t *testing.T) {
	g, err := PowerLaw(2000, 40000, 1.7, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	deg := g.OutDegrees()
	maxDeg := uint32(0)
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(g.NumEdges()) / float64(g.NumVertices)
	if float64(maxDeg) < 10*mean {
		t.Fatalf("max degree %d not heavy-tailed vs mean %.1f", maxDeg, mean)
	}
	if _, err := PowerLaw(100, 10, 0.5, 0); err == nil {
		t.Error("zipf exponent <= 1 accepted")
	}
	if _, err := PowerLaw(0, 10, 2, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestWebLikeLocality(t *testing.T) {
	n := 10000
	g, err := WebLike(n, 50000, 0.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	local := 0
	window := n / 64
	for _, e := range g.Edges {
		d := int(e.Dst) - int(e.Src)
		if d < 0 {
			d = -d
		}
		if d <= window || n-d <= window {
			local++
		}
	}
	frac := float64(local) / float64(len(g.Edges))
	if frac < 0.7 {
		t.Fatalf("only %.1f%% local edges with locality=0.9", frac*100)
	}
	if _, err := WebLike(10, 10, 1.5, 0); err == nil {
		t.Error("locality > 1 accepted")
	}
}

func TestFixtures(t *testing.T) {
	if g := Chain(5); g.NumEdges() != 4 || g.Validate() != nil {
		t.Errorf("chain(5): %d edges", g.NumEdges())
	}
	if g := Chain(0); g.NumEdges() != 0 {
		t.Error("chain(0) has edges")
	}
	if g := Grid(4); g.NumVertices != 16 || g.NumEdges() != 48 || g.Validate() != nil {
		t.Errorf("grid(4): %d vertices, %d edges", g.NumVertices, g.NumEdges())
	}
	if g := Grid(1); g.NumEdges() != 0 {
		t.Error("grid(1) has edges")
	}
	if g := Star(6); g.NumEdges() != 5 || g.Validate() != nil {
		t.Errorf("star(6): %d edges", g.NumEdges())
	}
	if g := Complete(4); g.NumEdges() != 12 || g.Validate() != nil {
		t.Errorf("complete(4): %d edges", g.NumEdges())
	}
}

func TestClustered(t *testing.T) {
	g, err := Clustered(4, 50, 200, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != 200 {
		t.Fatalf("vertices = %d, want 200", g.NumVertices)
	}
	if g.NumEdges() != 4*200+3 {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), 4*200+3)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Clustered(0, 5, 5, 0, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

// TestBraidFrontier walks the braid breadth-first from vertex 0: after the
// first step every level is one vertex per interval, for steps levels, and
// the filler half is never reached.
func TestBraidFrontier(t *testing.T) {
	const p, per, steps = 5, 64, 9
	g, err := Braid(p, per, steps, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != p*per || g.NumEdges() != p*steps+300 || g.Validate() != nil {
		t.Fatalf("braid: %d vertices, %d edges", g.NumVertices, g.NumEdges())
	}
	out := make(map[graph.VertexID][]graph.VertexID)
	for _, e := range g.Edges {
		out[e.Src] = append(out[e.Src], e.Dst)
	}
	level := []graph.VertexID{0}
	for step := 1; step <= steps; step++ {
		var next []graph.VertexID
		seen := make(map[int]bool)
		for _, v := range level {
			for _, d := range out[v] {
				if int(d)%per != step || seen[int(d)/per] {
					t.Fatalf("step %d: reached vertex %d (interval %d, offset %d)", step, d, int(d)/per, int(d)%per)
				}
				seen[int(d)/per] = true
				next = append(next, d)
			}
		}
		if len(next) != p {
			t.Fatalf("step %d: %d vertices, want one in each of %d intervals", step, len(next), p)
		}
		level = next
	}
	for _, v := range level {
		if len(out[v]) != 0 {
			t.Fatalf("vertex %d at the last step has out-edges", v)
		}
	}
	if _, err := Braid(p, 2*steps, steps, 0, 0); err == nil {
		t.Error("chains longer than half an interval accepted")
	}
}

func TestWeighted(t *testing.T) {
	g := Chain(100)
	Weighted(g, 10, 4)
	if !g.Weighted {
		t.Fatal("graph not marked weighted")
	}
	for i, e := range g.Edges {
		if e.Weight < 1 || e.Weight > 10 || math.IsNaN(float64(e.Weight)) {
			t.Fatalf("edge %d weight %v out of (1,10]", i, e.Weight)
		}
	}
}

func TestPresetsBuildAndValidate(t *testing.T) {
	if testing.Short() {
		t.Skip("presets are slow in -short mode")
	}
	for _, p := range Presets {
		g, err := p.Build(1)
		if err != nil {
			t.Errorf("preset %s: %v", p.Name, err)
			continue
		}
		if err := g.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", p.Name, err)
		}
		if g.NumEdges() == 0 {
			t.Errorf("preset %s produced no edges", p.Name)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("twitter-sim")
	if err != nil || p.PaperName != "Twitter2010" {
		t.Fatalf("ByName(twitter-sim) = %+v, %v", p, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func edgesEqual(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGeneratorsDeterministic(t *testing.T) {
	for name, build := range map[string]func(seed int64) (*graph.Graph, error){
		"erdos":    func(s int64) (*graph.Graph, error) { return ErdosRenyi(50, 100, s) },
		"powerlaw": func(s int64) (*graph.Graph, error) { return PowerLaw(50, 100, 2, s) },
		"weblike":  func(s int64) (*graph.Graph, error) { return WebLike(500, 1000, 0.5, s) },
		"cluster":  func(s int64) (*graph.Graph, error) { return Clustered(3, 10, 20, 2, s) },
	} {
		a, err := build(5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _ := build(5)
		if !edgesEqual(a.Edges, b.Edges) {
			t.Errorf("%s not deterministic", name)
		}
	}
}
