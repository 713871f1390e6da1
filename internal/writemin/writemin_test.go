package writemin

import (
	"math"
	"testing"

	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/seq"
	"pmsf/internal/verify"
)

// constWeights returns a copy of g with every edge at weight w — the
// worst case for the rank trick, since weight bits alone order nothing.
func constWeights(g *graph.EdgeList, w float64) *graph.EdgeList {
	out := g.Clone()
	for i := range out.Edges {
		out.Edges[i].W = w
	}
	return out
}

// traced runs Bor-WM on g under a fresh trace and returns the forest and
// the run's span summary.
func traced(g *graph.EdgeList, opt Options) (*graph.Forest, *obs.Summary) {
	opt.Trace = obs.NewCollector()
	f := Run(g, opt)
	return f, opt.Trace.Summarize(nil)
}

// parity checks a traced run against the sequential Kruskal reference:
// equal weight, equal component count, and full structural verification.
func parity(t *testing.T, name string, g *graph.EdgeList, opt Options) {
	t.Helper()
	f, s := traced(g, opt)
	ref := seq.Kruskal(g)
	if f.Components != ref.Components || f.Size() != ref.Size() {
		t.Fatalf("%s: got %d components / %d edges, Kruskal %d / %d",
			name, f.Components, f.Size(), ref.Components, ref.Size())
	}
	if math.Abs(f.Weight-ref.Weight) > 1e-9*(1+math.Abs(ref.Weight)) {
		t.Fatalf("%s: weight %v, Kruskal %v", name, f.Weight, ref.Weight)
	}
	if err := verify.Forest(g, f); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if s.Algorithm != "Bor-WM" {
		t.Fatalf("summary algorithm %q", s.Algorithm)
	}
}

func TestKruskalParity(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.EdgeList
	}{
		{"empty", &graph.EdgeList{N: 0}},
		{"isolated", &graph.EdgeList{N: 9}},
		{"single", &graph.EdgeList{N: 2, Edges: []graph.Edge{{U: 0, V: 1, W: 3}}}},
		{"self-loops", &graph.EdgeList{N: 3, Edges: []graph.Edge{
			{U: 0, V: 0, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 2, W: 0}}}},
		{"parallel-edges", &graph.EdgeList{N: 3, Edges: []graph.Edge{
			{U: 0, V: 1, W: 5}, {U: 0, V: 1, W: 1}, {U: 1, V: 0, W: 1},
			{U: 1, V: 2, W: 2}, {U: 1, V: 2, W: 2}}}},
		{"random", gen.Random(500, 2500, 1)},
		{"random-sparse", gen.Random(600, 300, 2)},
		{"geometric", gen.Geometric(400, 5, 3)},
		{"star", gen.Star(800, 4)},
		{"path", gen.Path(800, 5)},
		{"tied", gen.Reweight(gen.Random(400, 2400, 6), gen.WeightsSmallInts, 7)},
		{"all-equal", constWeights(gen.Random(400, 2000, 8), 2.5)},
		{"negative", constWeights(gen.Random(300, 1200, 9), -1)},
		{"mesh", gen.Mesh2D(22, 22, 10)},
	}
	for _, tc := range cases {
		for _, p := range []int{1, 2, 8} {
			parity(t, tc.name, tc.g, Options{Workers: p, Seed: uint64(p)})
		}
	}
}

func TestStatsIterations(t *testing.T) {
	g := gen.Random(2000, 12000, 11)
	_, s := traced(g, Options{Workers: 4})
	if len(s.Rounds) == 0 {
		t.Fatal("no iterations recorded")
	}
	// Supervertex counts must strictly decrease across rounds.
	for i := 1; i < len(s.Rounds); i++ {
		if s.Rounds[i].Arg("n") >= s.Rounds[i-1].Arg("n") {
			t.Fatalf("iteration %d: n=%d did not shrink from %d",
				i, s.Rounds[i].Arg("n"), s.Rounds[i-1].Arg("n"))
		}
	}
	if n := s.Rounds[0].Arg("n"); n != 2000 {
		t.Fatalf("first iteration n=%d, want 2000", n)
	}
}

func TestTraceSpans(t *testing.T) {
	c := obs.NewCollector()
	g := gen.Random(200, 800, 14)
	Run(g, Options{Workers: 2, Trace: c})
	names := map[string]bool{}
	for _, s := range c.Spans() {
		names[s.Name] = true
	}
	for _, want := range []string{"Bor-WM", "setup", "iteration",
		"find-min", "connect-components", "compact-graph"} {
		if !names[want] {
			t.Fatalf("missing span %q (got %v)", want, names)
		}
	}
}

func TestWriteMinKeyOrder(t *testing.T) {
	// raceKey must order by rank regardless of index.
	if raceKey(1, 0xFFFF) >= raceKey(2, 0) {
		t.Fatal("rank ordering broken by index bits")
	}
	if raceKey(0, 0) >= noMin {
		t.Fatal("smallest key not below the sentinel")
	}
}
