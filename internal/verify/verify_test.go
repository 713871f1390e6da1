package verify

import (
	"math"
	"slices"
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

// The cycle property: a spanning forest is minimum exactly when no
// non-forest edge is lighter than the heaviest forest edge on the cycle
// it closes. Minimum decides it by comparing sorted weights with
// Kruskal's; the tests below pin the forests it must accept and reject.

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
		if err := Minimum(g, seq.Kruskal(g)); err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
	}
}

// rejectsNonMinimal checks that f is a spanning forest of g that Minimum
// rejects with an error containing wantSub.
func rejectsNonMinimal(t *testing.T, g *graph.EdgeList, f *graph.Forest, wantSub string) {
	t.Helper()
	f.Weight = f.SumWeights(g)
	if err := Forest(g, f); err != nil {
		t.Fatalf("structurally valid tree rejected: %v", err)
	}
	err := Minimum(g, f)
	if err == nil {
		t.Fatal("non-minimal tree accepted as minimum")
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not mention %q", err, wantSub)
	}
}

func TestCyclePropertyRejectsNonMinimal(t *testing.T) {
	// Triangle: tree {0,2} is spanning but not minimum; edge 1 (w=2) is
	// lighter than tree edge 2 (w=3) on its cycle.
	g := &graph.EdgeList{N: 3, Edges: []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 3},
	}}
	f := &graph.Forest{EdgeIDs: []int32{0, 2}, Components: 1}
	rejectsNonMinimal(t, g, f, "sorted weight 1 of 2 is 3, reference MSF has 2")
}

// TestCyclePropertyCatchesWhatMinimumTolerates is the case a tolerance
// on the totals lets through: the tree's excess weight 1 is inside a
// 1e-9 relative tolerance at 1e10, so the totals compare equal under
// closeEnough, but the sorted weights do not, and the error names where.
func TestCyclePropertyCatchesWhatMinimumTolerates(t *testing.T) {
	g := &graph.EdgeList{N: 3, Edges: []graph.Edge{
		{U: 0, V: 1, W: 1e10}, {U: 1, V: 2, W: 1e10 + 1}, {U: 0, V: 2, W: 1e10 + 2},
	}}
	f := &graph.Forest{EdgeIDs: []int32{0, 2}, Components: 1}
	if !closeEnough(f.SumWeights(g), seq.Kruskal(g).Weight) {
		t.Fatal("totals outside the tolerance; the case tests nothing")
	}
	rejectsNonMinimal(t, g, f, "sorted weight 1 of 2 is 10000000002, reference MSF has 10000000001")
}

// TestCyclePropertyRejectsSwappedEdge takes a real MSF and swaps one
// tree edge for a heavier non-tree edge that keeps the forest spanning.
func TestCyclePropertyRejectsSwappedEdge(t *testing.T) {
	g := gen.Random(200, 1000, 7)
	f := seq.Kruskal(g)
	inTree := map[int32]bool{}
	for _, id := range f.EdgeIDs {
		inTree[id] = true
	}
	for swapOut, out := range f.EdgeIDs {
		for id := range g.Edges {
			if inTree[int32(id)] || g.Edges[id].W <= g.Edges[out].W {
				continue
			}
			nf := &graph.Forest{EdgeIDs: slices.Clone(f.EdgeIDs), Components: f.Components}
			nf.EdgeIDs[swapOut] = int32(id)
			nf.Weight = nf.SumWeights(g)
			if Forest(g, nf) == nil {
				rejectsNonMinimal(t, g, nf, "reference MSF has")
				return
			}
		}
	}
	t.Fatal("no spanning swap found")
}

// TestCyclePropertyDeepTree runs a 4096-vertex path, the deepest tree a
// forest can be, with a heavy chord every 97 vertices.
func TestCyclePropertyDeepTree(t *testing.T) {
	const n = 1 << 12
	g := &graph.EdgeList{N: n}
	for i := 0; i < n-1; i++ {
		g.Edges = append(g.Edges, graph.Edge{U: int32(i), V: int32(i + 1), W: float64(i)})
	}
	for i := 0; i+100 < n; i += 97 {
		g.Edges = append(g.Edges, graph.Edge{U: int32(i), V: int32(i + 100), W: 1e9})
	}
	f := seq.Kruskal(g)
	if err := Minimum(g, f); err != nil {
		t.Fatal(err)
	}
	// Make one chord lightest: the MSF changes, so the old forest fails.
	g.Edges[len(g.Edges)-1].W = -1
	rejectsNonMinimal(t, g, f, "sorted weight 0 of 4095 is 0, reference MSF has -1")
}

// TestCyclePropertyWithTies accepts an MSF of a heavily tied graph whose
// edges differ from Kruskal's: Kruskal run on the edges in reverse
// order, which breaks each tie toward the larger original id.
func TestCyclePropertyWithTies(t *testing.T) {
	g := gen.Random(300, 1500, 9)
	for i := range g.Edges {
		g.Edges[i].W = float64(i % 4)
	}
	m := len(g.Edges)
	rev := &graph.EdgeList{N: g.N, Edges: make([]graph.Edge, m)}
	for i, e := range g.Edges {
		rev.Edges[m-1-i] = e
	}
	f := seq.Kruskal(rev)
	for i, id := range f.EdgeIDs {
		f.EdgeIDs[i] = int32(m-1) - id
	}
	ref := seq.Kruskal(g)
	if slices.Equal(sortedIDs(f), sortedIDs(ref)) {
		t.Fatal("reverse-order Kruskal picked Kruskal's edges; the case tests nothing")
	}
	for _, msf := range []*graph.Forest{ref, f} {
		if err := Minimum(g, msf); err != nil {
			t.Fatal(err)
		}
	}
}

func sortedIDs(f *graph.Forest) []int32 {
	ids := slices.Clone(f.EdgeIDs)
	slices.Sort(ids)
	return ids
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
// so Minimum compares the sorted weight sequence, not the totals — and
// still rejects a forest whose sequence differs.
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
