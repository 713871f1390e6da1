package gen

import (
	"testing"

	"pmsf/internal/graph"
)

func TestRandomBasics(t *testing.T) {
	g := Random(1000, 5000, 1)
	if g.N != 1000 || len(g.Edges) != 5000 {
		t.Fatalf("shape n=%d m=%d", g.N, len(g.Edges))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, e := range g.Edges {
		if e.U == e.V {
			t.Fatalf("self-loop %+v", e)
		}
		if e.U > e.V {
			t.Fatalf("edge not normalized: %+v", e)
		}
		key := uint64(e.U)<<32 | uint64(e.V)
		if seen[key] {
			t.Fatalf("duplicate edge %+v", e)
		}
		seen[key] = true
		if e.W < 0 || e.W >= 1 {
			t.Fatalf("weight %g out of [0,1)", e.W)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(500, 2000, 7)
	b := Random(500, 2000, 7)
	c := Random(500, 2000, 8)
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("same seed different sizes")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("same seed different graphs")
		}
	}
	same := 0
	for i := range a.Edges {
		if a.Edges[i] == c.Edges[i] {
			same++
		}
	}
	if same == len(a.Edges) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestRandomDense(t *testing.T) {
	// Request nearly all possible edges; dedupe/top-up must still finish.
	n := 40
	max := n * (n - 1) / 2
	g := Random(n, max-5, 2)
	if len(g.Edges) != max-5 {
		t.Fatalf("m = %d, want %d", len(g.Edges), max-5)
	}
}

func TestRandomComplete(t *testing.T) {
	n := 20
	max := n * (n - 1) / 2
	g := Random(n, max, 3)
	if len(g.Edges) != max {
		t.Fatalf("complete graph has %d edges, want %d", len(g.Edges), max)
	}
}

// TestRandomAllPairs takes the dense path at the complete graph: every
// pair exactly once, no self-loops, in sorted order, and the same graph
// (weights included) for the same seed.
func TestRandomAllPairs(t *testing.T) {
	n := 600
	max := n * (n - 1) / 2
	a := Random(n, max, 9)
	if len(a.Edges) != max {
		t.Fatalf("m = %d, want %d", len(a.Edges), max)
	}
	for i, e := range a.Edges {
		if e.U >= e.V {
			t.Fatalf("edge %d = (%d, %d): want U < V", i, e.U, e.V)
		}
		if i > 0 {
			p := a.Edges[i-1]
			if p.U > e.U || (p.U == e.U && p.V >= e.V) {
				t.Fatalf("edges %d, %d out of order or duplicated: %v %v", i-1, i, p, e)
			}
		}
	}
	b := Random(n, max, 9)
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("same seed, edge %d differs: %v vs %v", i, a.Edges[i], b.Edges[i])
		}
	}
}

func TestRandomTooManyEdgesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for impossible m")
		}
	}()
	Random(10, 100, 1)
}

func TestRandomTinyN(t *testing.T) {
	if g := Random(0, 0, 1); g.N != 0 || len(g.Edges) != 0 {
		t.Fatal("n=0 broken")
	}
	if g := Random(1, 0, 1); g.N != 1 || len(g.Edges) != 0 {
		t.Fatal("n=1 broken")
	}
	if g := Random(2, 1, 1); len(g.Edges) != 1 {
		t.Fatal("n=2 m=1 broken")
	}
}

func TestMesh2D(t *testing.T) {
	g := Mesh2D(5, 7, 1)
	if g.N != 35 {
		t.Fatalf("n = %d", g.N)
	}
	// rows*(cols-1) + (rows-1)*cols edges.
	want := 5*6 + 4*7
	if len(g.Edges) != want {
		t.Fatalf("m = %d, want %d", len(g.Edges), want)
	}
	if graph.ComponentCount(g) != 1 {
		t.Fatal("mesh not connected")
	}
	// Every edge joins 4-neighbors.
	for _, e := range g.Edges {
		du := int(e.V - e.U)
		if du != 1 && du != 7 {
			t.Fatalf("edge %+v is not a grid neighbor", e)
		}
	}
}

func TestMesh2D60(t *testing.T) {
	g := Mesh2D60(50, 50, 1)
	full := 50 * 49 * 2
	ratio := float64(len(g.Edges)) / float64(full)
	if ratio < 0.55 || ratio > 0.65 {
		t.Fatalf("edge retention %.3f, want ~0.60", ratio)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMesh3D40(t *testing.T) {
	g := Mesh3D40(12, 1)
	if g.N != 12*12*12 {
		t.Fatalf("n = %d", g.N)
	}
	full := 3 * 12 * 12 * 11
	ratio := float64(len(g.Edges)) / float64(full)
	if ratio < 0.35 || ratio > 0.45 {
		t.Fatalf("edge retention %.3f, want ~0.40", ratio)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPermutePreservesStructure(t *testing.T) {
	g := Random(200, 800, 5)
	pg := Permute(g, 6)
	if pg.N != g.N || len(pg.Edges) != len(g.Edges) {
		t.Fatal("shape changed")
	}
	if err := pg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Weights travel with their edges.
	for i := range g.Edges {
		if pg.Edges[i].W != g.Edges[i].W {
			t.Fatal("weights reordered")
		}
	}
	// Degree multiset is invariant under relabeling.
	if !sameMultiset(degrees(g), degrees(pg)) {
		t.Fatal("degree multiset changed")
	}
	if graph.ComponentCount(g) != graph.ComponentCount(pg) {
		t.Fatal("component count changed")
	}
}

func degrees(g *graph.EdgeList) []int {
	d := make([]int, g.N)
	for _, e := range g.Edges {
		d[e.U]++
		d[e.V]++
	}
	return d
}

func sameMultiset(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[int]int{}
	for _, v := range a {
		count[v]++
	}
	for _, v := range b {
		count[v]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}
