package verify

import (
	"strings"
	"testing"

	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/seq"
)

func TestCyclePropertyAcceptsMSF(t *testing.T) {
	inputs := []*graph.EdgeList{
		gen.Random(500, 2500, 1),
		gen.Random(800, 500, 2), // disconnected
		gen.Mesh2D(25, 25, 3),
		gen.Geometric(400, 6, 4),
		gen.Str0(256, 5),
		{N: 0},
		{N: 3},
	}
	for i, g := range inputs {
		f := seq.Kruskal(g)
		if err := Forest(g, f); err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		if err := CycleProperty(g, f); err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		if err := Full(g, f); err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
	}
}

func TestCyclePropertyRejectsNonMinimal(t *testing.T) {
	// Triangle: tree {2,3} (the two heavy edges) is spanning but not
	// minimum; edge 0 (w=1) is lighter than tree edge 2 (w=3) on its
	// path.
	g := &graph.EdgeList{N: 3, Edges: []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 3},
	}}
	f := &graph.Forest{EdgeIDs: []int32{1, 2}, Weight: 5, Components: 1}
	err := CycleProperty(g, f)
	if err == nil || !strings.Contains(err.Error(), "cycle property") {
		t.Fatalf("non-minimal tree accepted: %v", err)
	}
}

// TestCyclePropertyCatchesWhatMinimumTolerates is why the cycle-property
// oracle (and internal/pathmax behind it) stays: a non-minimal tree whose
// excess weight is inside Minimum's relative tolerance passes Minimum
// but not Full.
func TestCyclePropertyCatchesWhatMinimumTolerates(t *testing.T) {
	g := &graph.EdgeList{N: 3, Edges: []graph.Edge{
		{U: 0, V: 1, W: 1e10}, {U: 1, V: 2, W: 1e10 + 1}, {U: 0, V: 2, W: 1e10 + 2},
	}}
	f := &graph.Forest{EdgeIDs: []int32{0, 2}, Components: 1}
	f.Weight = f.SumWeights(g)
	if err := Minimum(g, f); err != nil {
		t.Fatalf("Minimum rejected a forest within its tolerance: %v", err)
	}
	if err := Full(g, f); err == nil || !strings.Contains(err.Error(), "cycle property") {
		t.Fatalf("Full accepted a non-minimal tree: %v", err)
	}
}

func TestCyclePropertyRejectsSwappedEdge(t *testing.T) {
	// Take a real MSF and swap one tree edge for a heavier non-tree edge
	// that keeps the forest spanning (find one by brute force).
	g := gen.Random(200, 1000, 7)
	f := seq.Kruskal(g)
	inTree := map[int32]bool{}
	for _, id := range f.EdgeIDs {
		inTree[id] = true
	}
	for swapOut := range f.EdgeIDs {
		for id := range g.Edges {
			if inTree[int32(id)] {
				continue
			}
			candidate := append([]int32(nil), f.EdgeIDs...)
			candidate[swapOut] = int32(id)
			nf := &graph.Forest{EdgeIDs: candidate, Components: f.Components}
			nf.Weight = nf.SumWeights(g)
			if Forest(g, nf) != nil {
				continue // not spanning anymore
			}
			if nf.Weight <= f.Weight {
				continue // extremely unlikely (equal-weight alternative)
			}
			if err := CycleProperty(g, nf); err == nil {
				t.Fatal("heavier spanning tree passed the cycle property")
			}
			return
		}
	}
	t.Skip("no swappable edge pair found")
}

// Long path graphs exercise the binary-lifting depth.
func TestCyclePropertyDeepTree(t *testing.T) {
	const n = 1 << 12
	g := &graph.EdgeList{N: n}
	for i := 0; i < n-1; i++ {
		g.Edges = append(g.Edges, graph.Edge{U: int32(i), V: int32(i + 1), W: float64(i)})
	}
	// Chords that are all heavy (valid) plus verification.
	for i := 0; i+100 < n; i += 97 {
		g.Edges = append(g.Edges, graph.Edge{U: int32(i), V: int32(i + 100), W: 1e9})
	}
	f := seq.Kruskal(g)
	if err := Full(g, f); err != nil {
		t.Fatal(err)
	}
	// Now make one chord light: the MSF changes, so the OLD forest must
	// fail the cycle property.
	lightID := int32(len(g.Edges) - 1)
	g.Edges[lightID].W = -1
	if err := CycleProperty(g, f); err == nil {
		t.Fatal("light chord not detected")
	}
}

func TestCyclePropertyWithTies(t *testing.T) {
	g := gen.Random(300, 1500, 9)
	for i := range g.Edges {
		g.Edges[i].W = float64(i % 4)
	}
	f := seq.Kruskal(g)
	if err := CycleProperty(g, f); err != nil {
		t.Fatal(err)
	}
}
