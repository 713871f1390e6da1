package seq_test

import (
	"slices"
	"testing"
	"testing/quick"

	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/seq"
	"pmsf/internal/verify"
)

// baselines lists every sequential algorithm, Prim once per heap.
func baselines() map[string]func(*graph.EdgeList) *graph.Forest {
	b := map[string]func(*graph.EdgeList) *graph.Forest{
		"Prim":          seq.Prim,
		"Kruskal":       seq.Kruskal,
		"Boruvka":       seq.Boruvka,
		"FilterKruskal": seq.FilterKruskal,
	}
	for _, pq := range seq.PrimPQs() {
		b["Prim/"+pq.String()] = func(g *graph.EdgeList) *graph.Forest { return seq.PrimWithHeap(g, pq) }
	}
	return b
}

// sameEdges reports whether two forests hold the same edge ids.
func sameEdges(a, b *graph.Forest) bool {
	x, y := slices.Clone(a.EdgeIDs), slices.Clone(b.EdgeIDs)
	slices.Sort(x)
	slices.Sort(y)
	return slices.Equal(x, y)
}

func TestBaselinesOnKnownGraph(t *testing.T) {
	// Weighted square with diagonal: MST = {0-1:1, 1-2:2, 0-3:3}, w=6.
	g := &graph.EdgeList{N: 4, Edges: []graph.Edge{
		{U: 0, V: 1, W: 1},
		{U: 1, V: 2, W: 2},
		{U: 2, V: 3, W: 4},
		{U: 0, V: 3, W: 3},
		{U: 0, V: 2, W: 5},
	}}
	for name, run := range baselines() {
		f := run(g)
		if f.Weight != 6 {
			t.Errorf("%s: weight %g, want 6", name, f.Weight)
		}
		if f.Components != 1 || len(f.EdgeIDs) != 3 {
			t.Errorf("%s: shape %d/%d", name, f.Components, len(f.EdgeIDs))
		}
	}
}

func TestBaselinesEdgeCases(t *testing.T) {
	cases := []*graph.EdgeList{
		{N: 0},
		{N: 1},
		{N: 3}, // all isolated
		{N: 2, Edges: []graph.Edge{{U: 0, V: 1, W: 1}}},
		{N: 2, Edges: []graph.Edge{{U: 0, V: 0, W: 1}}},                     // self-loop only
		{N: 2, Edges: []graph.Edge{{U: 0, V: 1, W: 2}, {U: 0, V: 1, W: 1}}}, // parallel
	}
	for i, g := range cases {
		for name, run := range baselines() {
			f := run(g)
			if err := verify.Forest(g, f); err != nil {
				t.Errorf("case %d %s: %v", i, name, err)
			}
		}
	}
}

// All three baselines agree on the MSF weight for arbitrary random
// graphs — with distinct weights the MSF is unique.
func TestBaselinesAgreeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 2 + int(seed%300)
		maxM := n * (n - 1) / 2
		m := int(seed>>8) % (maxM + 1)
		g := gen.Random(n, m, seed)
		fp := seq.Prim(g)
		fk := seq.Kruskal(g)
		fb := seq.Boruvka(g)
		return eqWeight(fp.Weight, fk.Weight) && eqWeight(fk.Weight, fb.Weight) &&
			fp.Components == fk.Components && fk.Components == fb.Components &&
			len(fp.EdgeIDs) == len(fk.EdgeIDs) && len(fk.EdgeIDs) == len(fb.EdgeIDs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func eqWeight(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+a+b)
}

// Every baseline breaks weight ties by edge id, so each returns
// Kruskal's forest edge for edge, also when the families are re-weighted
// by small integers. That keeps Kruskal, the reference of
// verify.Minimum, checked by independent algorithms.
func TestBaselinesVerifyOnFamilies(t *testing.T) {
	inputs := []*graph.EdgeList{
		gen.Random(1500, 6000, 1),
		gen.Random(1500, 1000, 2), // disconnected
		gen.Mesh2D(30, 30, 3),
		gen.Mesh2D60(30, 30, 4),
		gen.Mesh3D40(10, 5),
		gen.Geometric(600, 6, 6),
		gen.Str0(512, 7),
		gen.Str1(500, 8),
		gen.Str2(500, 9),
		gen.Str3(500, 10),
	}
	for i, g := range inputs {
		for j, g := range []*graph.EdgeList{g, gen.Reweight(g, gen.WeightsSmallInts, uint64(i))} {
			ref := seq.Kruskal(g)
			for name, run := range baselines() {
				f := run(g)
				if err := verify.Forest(g, f); err != nil {
					t.Fatalf("input %d/%d %s: %v", i, j, name, err)
				}
				if !sameEdges(f, ref) {
					t.Fatalf("input %d/%d %s: forest differs from Kruskal's", i, j, name)
				}
			}
		}
	}
}

// With duplicate weights all baselines must still produce Kruskal's
// forest (ties broken by edge id).
func TestDuplicateWeights(t *testing.T) {
	for _, k := range []int{2, 3, 5} {
		g := gen.Random(400, 2000, 11)
		for i := range g.Edges {
			g.Edges[i].W = float64(i % k) // heavy ties
		}
		ref := seq.Kruskal(g)
		for name, run := range baselines() {
			f := run(g)
			if err := verify.Forest(g, f); err != nil {
				t.Fatalf("mod %d %s: %v", k, name, err)
			}
			if !sameEdges(f, ref) {
				t.Fatalf("mod %d %s: forest differs from Kruskal's under ties", k, name)
			}
		}
	}
}

func TestPrimAdjReuse(t *testing.T) {
	g := gen.Random(300, 900, 12)
	adj := graph.BuildAdj(g)
	f1 := seq.PrimAdj(adj, g.N)
	f2 := seq.Prim(g)
	if f1.Weight != f2.Weight || len(f1.EdgeIDs) != len(f2.EdgeIDs) {
		t.Fatal("PrimAdj differs from Prim")
	}
}

func TestKruskalNegativeWeights(t *testing.T) {
	g := &graph.EdgeList{N: 3, Edges: []graph.Edge{
		{U: 0, V: 1, W: -5},
		{U: 1, V: 2, W: -1},
		{U: 0, V: 2, W: 2},
	}}
	for name, run := range baselines() {
		f := run(g)
		if f.Weight != -6 {
			t.Errorf("%s: weight %g, want -6", name, f.Weight)
		}
	}
}
