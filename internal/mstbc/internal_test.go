package mstbc

import (
	"testing"

	"pmsf/internal/boruvka"
	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/heap"
	"pmsf/internal/obs"
	"pmsf/internal/uf"
)

// workList builds the (edges, starts) working form used across the
// package from a plain edge list.
func workList(t *testing.T, g *graph.EdgeList) ([]graph.WEdge, []int64) {
	t.Helper()
	return boruvka.CompactWorkList(boruvka.SortSampleSort, 2, graph.DirectedWorkList(g), g.N, 1, obs.Span{})
}

func TestLightest(t *testing.T) {
	g := &graph.EdgeList{N: 4, Edges: []graph.Edge{
		{U: 0, V: 1, W: 5},
		{U: 0, V: 2, W: 2},
		{U: 0, V: 3, W: 8},
		{U: 1, V: 2, W: 1},
	}}
	edges, starts := workList(t, g)
	to, arc := lightest(0, edges, starts)
	if to != 2 || edges[arc].W != 2 {
		t.Fatalf("lightest(0) = (%d, w=%g)", to, edges[arc].W)
	}
	to, arc = lightest(1, edges, starts)
	if to != 2 || edges[arc].W != 1 {
		t.Fatalf("lightest(1) = (%d, w=%g)", to, edges[arc].W)
	}
	// Isolated vertex.
	g2 := &graph.EdgeList{N: 3, Edges: []graph.Edge{{U: 0, V: 1, W: 1}}}
	edges2, starts2 := workList(t, g2)
	to, arc = lightest(2, edges2, starts2)
	if to != 2 || arc != -1 {
		t.Fatalf("isolated lightest = (%d,%d)", to, arc)
	}
}

func TestLightestTieBreaksByID(t *testing.T) {
	g := &graph.EdgeList{N: 3, Edges: []graph.Edge{
		{U: 0, V: 2, W: 1}, // id 0
		{U: 0, V: 1, W: 1}, // id 1 — same weight, larger id
	}}
	edges, starts := workList(t, g)
	_, arc := lightest(0, edges, starts)
	if edges[arc].ID != 0 {
		t.Fatalf("tie broken to id %d, want 0", edges[arc].ID)
	}
}

func TestSequentialFinish(t *testing.T) {
	g := gen.Random(300, 1200, 5)
	edges, _ := workList(t, g)
	ids := sequentialFinish(g.N, edges)
	// The selected ids must form a spanning forest of g with the MSF
	// weight (cross-checked against Kruskal through the weights).
	u := uf.New(g.N)
	var w float64
	for _, id := range ids {
		e := g.Edges[id]
		if !u.Union(e.U, e.V) {
			t.Fatalf("edge %d closes a cycle", id)
		}
		w += e.W
	}
	if len(ids) != g.N-graph.ComponentCount(g) {
		t.Fatalf("%d edges selected", len(ids))
	}
}

func TestBaseComponents(t *testing.T) {
	g := &graph.EdgeList{N: 5, Edges: []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1},
	}}
	edges, _ := workList(t, g)
	if got := baseComponents(5, edges); got != 3 {
		t.Fatalf("components = %d, want 3", got)
	}
}

func TestDenseLabels(t *testing.T) {
	// One edge and nb = 1 make the run allocate its level scratch; the
	// test then stands in for a level's selections: 0-3 is a tree edge
	// of worker 0, and 5 picked 4 in the Borůvka fix-up.
	g := &graph.EdgeList{N: 6, Edges: []graph.Edge{{U: 0, V: 3, W: 1}}}
	r := newRun(g, Options{Workers: 2, BaseSize: 1})
	defer r.close()
	r.treeArcs[0] = append(r.treeArcs[0], 0) // the 0->3 arc
	for v := range r.parent {
		r.parent[v] = int32(v)
	}
	r.parent[5] = 4
	labels, k := r.denseLabels()
	if k != 4 {
		t.Fatalf("k = %d, want 4", k)
	}
	if labels[0] != labels[3] || labels[4] != labels[5] {
		t.Fatal("merged vertices got different labels")
	}
	if labels[1] == labels[2] || labels[0] == labels[1] {
		t.Fatal("distinct components share a label")
	}
	for _, l := range labels {
		if l < 0 || int(l) >= k {
			t.Fatalf("label %d out of range", l)
		}
	}
}

// growTree in total isolation: one worker, a triangle; the tree must
// follow Prim order and record the two light edges.
func TestGrowTreeSolo(t *testing.T) {
	g := &graph.EdgeList{N: 3, Edges: []graph.Edge{
		{U: 0, V: 1, W: 1},
		{U: 1, V: 2, W: 2},
		{U: 0, V: 2, W: 3},
	}}
	edges, starts := workList(t, g)
	color := make([]int64, 3)
	visited := make([]int32, 3)
	h := newTestHeap(3)
	color[0] = 7 // claimed
	var out []int32
	grown, collided := growTree(0, 7, h, color, visited, edges, starts, &out)
	if collided {
		t.Fatal("solo tree collided")
	}
	if grown != 3 {
		t.Fatalf("grew %d vertices", grown)
	}
	if len(out) != 2 {
		t.Fatalf("recorded %d arcs", len(out))
	}
	w := edges[out[0]].W + edges[out[1]].W
	if w != 3 { // 1 + 2
		t.Fatalf("tree weight %g, want 3", w)
	}
}

// growTree must stop (mature) when it touches a foreign color and leave
// foreign vertices unvisited.
func TestGrowTreeMaturesOnForeignColor(t *testing.T) {
	g := &graph.EdgeList{N: 4, Edges: []graph.Edge{
		{U: 0, V: 1, W: 1},
		{U: 1, V: 2, W: 2},
		{U: 2, V: 3, W: 3},
	}}
	edges, starts := workList(t, g)
	color := make([]int64, 4)
	visited := make([]int32, 4)
	color[0] = 7
	color[2] = 99 // foreign tree sits at vertex 2
	h := newTestHeap(4)
	var out []int32
	grown, collided := growTree(0, 7, h, color, visited, edges, starts, &out)
	if !collided {
		t.Fatal("no collision reported")
	}
	// Vertex 1 is adjacent to the foreign vertex 2, so the maturity check
	// stops the tree before visiting it: only vertex 0 joins.
	if grown != 1 || len(out) != 0 {
		t.Fatalf("grew %d vertices, %d arcs", grown, len(out))
	}
	if visited[2] != 0 || visited[3] != 0 {
		t.Fatal("foreign region was visited")
	}
}

// newTestHeap builds a heap sized for the test graphs.
func newTestHeap(n int) *heap.IndexedHeap { return heap.New(n) }
