package boruvka

import (
	"fmt"
	"testing"

	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/verify"
)

type variant struct {
	name string
	run  func(*graph.EdgeList, Options) *graph.Forest
}

// traced runs one variant on g under a fresh trace and returns the run's
// span summary.
func traced(run func(*graph.EdgeList, Options) *graph.Forest, g *graph.EdgeList, opt Options) *obs.Summary {
	opt.Trace = obs.NewCollector()
	run(g, opt)
	return opt.Trace.Summarize(nil)
}

func variants() []variant {
	return []variant{
		{"Bor-EL", EL},
		{"Bor-AL", AL},
		{"Bor-ALM", ALM},
		{"Bor-FAL", FAL},
	}
}

func testGraphs(tb testing.TB) map[string]*graph.EdgeList {
	tb.Helper()
	return map[string]*graph.EdgeList{
		"empty":        {N: 0},
		"single":       {N: 1},
		"two-isolated": {N: 2},
		"one-edge":     {N: 2, Edges: []graph.Edge{{U: 0, V: 1, W: 0.5}}},
		"triangle": {N: 3, Edges: []graph.Edge{
			{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 3},
		}},
		"parallel-edges": {N: 2, Edges: []graph.Edge{
			{U: 0, V: 1, W: 3}, {U: 0, V: 1, W: 1}, {U: 1, V: 0, W: 2},
		}},
		"self-loops": {N: 3, Edges: []graph.Edge{
			{U: 0, V: 0, W: 0.1}, {U: 0, V: 1, W: 1}, {U: 2, V: 2, W: 0.2}, {U: 1, V: 2, W: 2},
		}},
		"random-small":  gen.Random(64, 128, 1),
		"random-mid":    gen.Random(1000, 5000, 2),
		"random-sparse": gen.Random(2000, 2200, 3),
		"disconnected":  gen.Random(500, 300, 4),
		"mesh":          gen.Mesh2D(24, 24, 5),
		"mesh2d60":      gen.Mesh2D60(24, 24, 6),
		"mesh3d40":      gen.Mesh3D40(9, 7),
		"geometric":     gen.Geometric(400, 6, 8),
		"str0":          gen.Str0(256, 9),
		"str1":          gen.Str1(300, 10),
		"str2":          gen.Str2(300, 11),
		"str3":          gen.Str3(300, 12),
	}
}

func TestVariantsProduceMSF(t *testing.T) {
	for _, v := range variants() {
		for name, g := range testGraphs(t) {
			for _, p := range []int{1, 2, 4, 7} {
				t.Run(fmt.Sprintf("%s/%s/p=%d", v.name, name, p), func(t *testing.T) {
					f := v.run(g, Options{Workers: p, Seed: 42})
					if err := verify.Full(g, f); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
