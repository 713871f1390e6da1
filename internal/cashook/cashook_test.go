package cashook

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
// single-bucket extreme for the bucket loop.
func constWeights(g *graph.EdgeList, w float64) *graph.EdgeList {
	out := g.Clone()
	for i := range out.Edges {
		out.Edges[i].W = w
	}
	return out
}

// traced runs Bor-CAS on g under a fresh trace and returns the forest
// and the run's span summary.
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
	if s.Algorithm != "Bor-CAS" {
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

func TestTiedBucketsGoParallel(t *testing.T) {
	// Small-int weights pile every edge into 8 buckets, all far beyond
	// parCutoff — the parallel hook path must engage and stay correct.
	g := gen.Reweight(gen.Random(3000, 18000, 11), gen.WeightsSmallInts, 12)
	f, s := traced(g, Options{Workers: 4})
	if s.Args["hook.parallel_buckets"] == 0 {
		t.Fatalf("no bucket took the parallel path (buckets=%d max=%d)",
			s.Args["hook.buckets"], s.Args["hook.max_bucket"])
	}
	ref := seq.Kruskal(g)
	if math.Abs(f.Weight-ref.Weight) > 1e-9 {
		t.Fatalf("weight %v, Kruskal %v", f.Weight, ref.Weight)
	}
	if err := verify.Forest(g, f); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctWeightsBucketPerEdge(t *testing.T) {
	g := gen.Random(300, 900, 13) // uniform [0,1) weights: ties ~impossible
	_, s := traced(g, Options{Workers: 2})
	if b := s.Args["hook.buckets"]; b != int64(len(g.Edges)) {
		t.Fatalf("%d buckets for %d distinct-weight edges", b, len(g.Edges))
	}
	if mb := s.Args["hook.max_bucket"]; mb != 1 {
		t.Fatalf("max bucket %d, want 1", mb)
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
	for _, want := range []string{"Bor-CAS", "sort", "hook", "collect"} {
		if !names[want] {
			t.Fatalf("missing span %q (got %v)", want, names)
		}
	}
}
