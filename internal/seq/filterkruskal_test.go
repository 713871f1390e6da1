package seq_test

import (
	"testing"
	"testing/quick"

	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/seq"
	"pmsf/internal/verify"
)

func TestFilterKruskalOnFamilies(t *testing.T) {
	inputs := []*graph.EdgeList{
		{N: 0},
		{N: 3},
		{N: 2, Edges: []graph.Edge{{U: 0, V: 1, W: 1}}},
		{N: 2, Edges: []graph.Edge{{U: 0, V: 0, W: 1}}},
		gen.Random(2000, 12000, 1),
		gen.Random(500, 50000, 2), // dense: the filter's home turf
		gen.Random(1500, 900, 3),  // disconnected
		gen.Mesh2D(40, 40, 4),
		gen.Str0(512, 5),
		gen.Geometric(800, 6, 6),
	}
	for i, g := range inputs {
		f := seq.FilterKruskal(g)
		if err := verify.Minimum(g, f); err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
	}
}

func TestFilterKruskalMatchesKruskalProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 2 + int(seed%200)
		maxM := n * (n - 1) / 2
		m := int(seed>>8) % (maxM + 1)
		g := gen.Random(n, m, seed)
		a := seq.Kruskal(g)
		b := seq.FilterKruskal(g)
		return eqWeight(a.Weight, b.Weight) &&
			a.Components == b.Components &&
			len(a.EdgeIDs) == len(b.EdgeIDs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterKruskalDuplicateWeights(t *testing.T) {
	g := gen.Random(600, 30000, 7)
	for i := range g.Edges {
		g.Edges[i].W = float64(i % 2) // extreme ties stress the pivot logic
	}
	f := seq.FilterKruskal(g)
	if err := verify.Forest(g, f); err != nil {
		t.Fatal(err)
	}
	ref := seq.Kruskal(g)
	if !eqWeight(f.Weight, ref.Weight) {
		t.Fatalf("weight %g != %g", f.Weight, ref.Weight)
	}
}

func TestFilterKruskalAllEqualWeights(t *testing.T) {
	// All keys tie on weight; (w, id) uniqueness must keep the recursion
	// finite and exact.
	g := gen.Random(400, 20000, 8)
	for i := range g.Edges {
		g.Edges[i].W = 1
	}
	f := seq.FilterKruskal(g)
	if err := verify.Forest(g, f); err != nil {
		t.Fatal(err)
	}
	if len(f.EdgeIDs) != g.N-f.Components {
		t.Fatal("not spanning")
	}
}
