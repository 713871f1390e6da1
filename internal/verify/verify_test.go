package verify

import (
	"math"
	"strings"
	"testing"

	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/seq"
)

func fixture() (*graph.EdgeList, *graph.Forest) {
	g := gen.Random(200, 800, 1)
	return g, seq.Kruskal(g)
}

func TestAcceptsCorrectForest(t *testing.T) {
	g, f := fixture()
	if err := Forest(g, f); err != nil {
		t.Fatal(err)
	}
	if err := Minimum(g, f); err != nil {
		t.Fatal(err)
	}
}

func TestAcceptsDisconnected(t *testing.T) {
	g := gen.Random(300, 150, 2)
	f := seq.Prim(g)
	if err := Minimum(g, f); err != nil {
		t.Fatal(err)
	}
}

func corrupt(t *testing.T, name string, mutate func(*graph.EdgeList, *graph.Forest), wantSub string) {
	t.Helper()
	g, f := fixture()
	mutate(g, f)
	err := Forest(g, f)
	if err == nil {
		err = Minimum(g, f)
	}
	if err == nil {
		t.Fatalf("%s: corruption accepted", name)
	}
	if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("%s: error %q does not mention %q", name, err, wantSub)
	}
}

func TestRejectsCorruptions(t *testing.T) {
	corrupt(t, "missing edge", func(g *graph.EdgeList, f *graph.Forest) {
		f.Weight -= g.Edges[f.EdgeIDs[len(f.EdgeIDs)-1]].W
		f.EdgeIDs = f.EdgeIDs[:len(f.EdgeIDs)-1]
	}, "edges")
	corrupt(t, "duplicate id", func(g *graph.EdgeList, f *graph.Forest) {
		f.EdgeIDs[1] = f.EdgeIDs[0]
	}, "")
	corrupt(t, "out of range id", func(g *graph.EdgeList, f *graph.Forest) {
		f.EdgeIDs[0] = int32(len(g.Edges)) + 5
	}, "out of range")
	corrupt(t, "negative id", func(g *graph.EdgeList, f *graph.Forest) {
		f.EdgeIDs[0] = -1
	}, "out of range")
	corrupt(t, "wrong weight", func(g *graph.EdgeList, f *graph.Forest) {
		f.Weight += 1
	}, "weight")
	corrupt(t, "wrong component count", func(g *graph.EdgeList, f *graph.Forest) {
		f.Components++
	}, "components")
}

func TestRejectsCycle(t *testing.T) {
	g := &graph.EdgeList{N: 3, Edges: []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 3},
	}}
	f := &graph.Forest{EdgeIDs: []int32{0, 1, 2}, Weight: 6, Components: 1}
	if err := Forest(g, f); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle accepted: %v", err)
	}
}

func TestRejectsNonMinimal(t *testing.T) {
	// A valid spanning tree that is not minimum: triangle using the two
	// heavy edges.
	g := &graph.EdgeList{N: 3, Edges: []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 3},
	}}
	f := &graph.Forest{EdgeIDs: []int32{1, 2}, Weight: 5, Components: 1}
	if err := Forest(g, f); err != nil {
		t.Fatalf("structurally valid tree rejected: %v", err)
	}
	if err := Minimum(g, f); err == nil {
		t.Fatal("non-minimal tree accepted as minimum")
	}
}

func TestRejectsSelfLoopSelection(t *testing.T) {
	g := &graph.EdgeList{N: 2, Edges: []graph.Edge{
		{U: 0, V: 0, W: 0.5}, {U: 0, V: 1, W: 1},
	}}
	f := &graph.Forest{EdgeIDs: []int32{0, 1}, Weight: 1.5, Components: 1}
	if err := Forest(g, f); err == nil || !strings.Contains(err.Error(), "self-loop") {
		t.Fatalf("self-loop selection accepted: %v", err)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := &graph.EdgeList{N: 0}
	f := &graph.Forest{}
	if err := Minimum(g, f); err != nil {
		t.Fatal(err)
	}
}

func TestCloseEnough(t *testing.T) {
	if !closeEnough(1.0, 1.0+1e-12) {
		t.Fatal("tiny relative error rejected")
	}
	if closeEnough(1.0, 1.001) {
		t.Fatal("large error accepted")
	}
	if !closeEnough(0, 0) {
		t.Fatal("zero comparison broken")
	}
	if !closeEnough(math.Inf(-1), math.Inf(-1)) || !closeEnough(math.NaN(), math.NaN()) {
		t.Fatal("equal non-finite totals rejected")
	}
	if closeEnough(math.Inf(1), math.Inf(-1)) || closeEnough(math.NaN(), 1) || closeEnough(math.Inf(1), math.MaxFloat64) {
		t.Fatal("different non-finite totals accepted")
	}
}

// Totals of ±MaxFloat64 weights depend on summation order: the same
// minimum forest overflows to +Inf in one order and not in the other,
// so Minimum falls back to the sorted weight sequence — and still
// rejects a forest whose sequence differs.
func TestMinimumOrderDependentTotal(t *testing.T) {
	m := math.MaxFloat64
	g := &graph.EdgeList{N: 4, Edges: []graph.Edge{
		{U: 0, V: 1, W: -m}, {U: 1, V: 2, W: m}, {U: 2, V: 3, W: m},
		{U: 0, V: 3, W: m}, // ties the cycle: any three edges are minimum
		{U: 0, V: 2, W: math.Inf(1)},
	}}
	// EdgeIDs order 1, 2, 0 sums to +Inf; Kruskal's (0, 1, 2) stays finite.
	f := &graph.Forest{EdgeIDs: []int32{1, 2, 0}, Components: 1}
	f.Weight = f.SumWeights(g)
	if err := Minimum(g, f); err != nil {
		t.Fatalf("minimum forest with an order-dependent total rejected: %v", err)
	}
	heavy := &graph.Forest{EdgeIDs: []int32{0, 4, 2}, Components: 1}
	heavy.Weight = heavy.SumWeights(g)
	if err := Minimum(g, heavy); err == nil {
		t.Fatal("non-minimum forest accepted")
	}
}
