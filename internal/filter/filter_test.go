package filter

import (
	"fmt"
	"testing"

	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/verify"
)

// traced runs the filter on g under a fresh trace and returns the forest
// and the run's span summary.
func traced(g *graph.EdgeList, opt Options) (*graph.Forest, *obs.Summary) {
	opt.Trace = obs.NewCollector()
	f := Run(g, opt)
	return f, opt.Trace.Summarize(nil)
}

func TestFilterProducesMSF(t *testing.T) {
	inputs := map[string]*graph.EdgeList{
		"empty":        {N: 0},
		"isolated":     {N: 5},
		"one-edge":     {N: 2, Edges: []graph.Edge{{U: 0, V: 1, W: 1}}},
		"random":       gen.Random(2000, 10000, 1),
		"dense":        gen.Random(500, 20000, 2),
		"disconnected": gen.Random(1500, 900, 3),
		"mesh":         gen.Mesh2D(30, 30, 4),
		"geometric":    gen.Geometric(600, 6, 5),
		"str0":         gen.Str0(256, 6),
	}
	for name, g := range inputs {
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				f := Run(g, Options{Workers: p, Seed: 42})
				if err := verify.Full(g, f); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestFilterWithTies(t *testing.T) {
	g := gen.Random(800, 6000, 7)
	for i := range g.Edges {
		g.Edges[i].W = float64(i % 4)
	}
	for seed := uint64(0); seed < 5; seed++ {
		f := Run(g, Options{Workers: 4, Seed: seed})
		if err := verify.Full(g, f); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// The KKT filter's point: the final phase sees O(n/p) expected edges, so
// on a dense input the survivor count must be far below m.
func TestFilterReducesDenseInput(t *testing.T) {
	g := gen.Random(1000, 50000, 8) // m/n = 50
	f, s := traced(g, Options{Workers: 4, Seed: 1})
	if err := verify.Minimum(g, f); err != nil {
		t.Fatal(err)
	}
	m, final := s.Args["Filter.m"], s.Args["final-msf.m"]
	if m != int64(len(g.Edges)) || final != m-s.Args["filter.discarded"] {
		t.Fatalf("summary args inconsistent: %v", s.Args)
	}
	if final >= m/4 {
		t.Fatalf("filter kept %d of %d edges; expected a large reduction", final, m)
	}
	// Expected survivors <= sampled (about m/2) forest part + ~n/p heavy
	// survivors; sanity bound at 4n.
	if final > int64(4*g.N) {
		t.Fatalf("final %d edges exceeds 4n", final)
	}
	if s.Args["sample.sampled"] == 0 || s.Args["filter.discarded"] == 0 {
		t.Fatalf("summary args incomplete: %v", s.Args)
	}
	if s.Counts["Bor-FAL"] != 2 {
		t.Fatalf("%d inner Bor-FAL runs traced, want 2", s.Counts["Bor-FAL"])
	}
}

func TestFilterSampleProbabilities(t *testing.T) {
	g := gen.Random(1000, 20000, 9)
	// Out-of-range probabilities (7) default to 0.5.
	for _, c := range []struct{ set, want float64 }{{0.1, 0.1}, {0.25, 0.25}, {0.5, 0.5}, {0.9, 0.9}, {7, 0.5}} {
		f, s := traced(g, Options{Workers: 2, Seed: 3, SampleP: c.set})
		if err := verify.Minimum(g, f); err != nil {
			t.Fatalf("p=%g: %v", c.set, err)
		}
		ratio := float64(s.Args["sample.sampled"]) / float64(s.Args["Filter.m"])
		if ratio < c.want-0.05 || ratio > c.want+0.05 {
			t.Fatalf("p=%g: sampled fraction %.3f, want %g", c.set, ratio, c.want)
		}
	}
}

func TestFilterManySeeds(t *testing.T) {
	g := gen.Random(700, 5000, 10)
	for seed := uint64(0); seed < 10; seed++ {
		f := Run(g, Options{Workers: 3, Seed: seed})
		if err := verify.Minimum(g, f); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestFilterRecursive(t *testing.T) {
	g := gen.Random(2000, 60000, 11) // dense enough to trigger recursion
	f, s := traced(g, Options{
		Workers: 4, Seed: 2,
		MaxLevels: 3, RecurseBelow: 5000,
	})
	if err := verify.Full(g, f); err != nil {
		t.Fatal(err)
	}
	if s.Counts["Filter"] < 2 {
		t.Fatalf("recursion did not engage: %d levels", s.Counts["Filter"])
	}
	// Single level must also still work and agree.
	f1, s1 := traced(g, Options{Workers: 4, Seed: 2})
	if s1.Counts["Filter"] != 1 {
		t.Fatalf("default levels = %d", s1.Counts["Filter"])
	}
	if d := f.Weight - f1.Weight; d > 1e-9 || d < -1e-9 {
		t.Fatal("recursive and single-level filters disagree")
	}
}

func TestFilterRecursionDepthBounded(t *testing.T) {
	g := gen.Random(1500, 40000, 12)
	_, s := traced(g, Options{Workers: 2, Seed: 1, MaxLevels: 2, RecurseBelow: 100})
	if s.Counts["Filter"] > 2 {
		t.Fatalf("depth %d exceeds MaxLevels", s.Counts["Filter"])
	}
}
