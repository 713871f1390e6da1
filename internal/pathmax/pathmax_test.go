package pathmax

import (
	"strings"
	"testing"

	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/rng"
	"pmsf/internal/seq"
)

// bruteMax finds the heaviest edge on the forest path u..v by DFS.
func bruteMax(g *graph.EdgeList, forestIDs []int32, u, v int32) int32 {
	adj := map[int32][][2]int32{} // vertex -> (to, eid)
	for _, id := range forestIDs {
		e := g.Edges[id]
		adj[e.U] = append(adj[e.U], [2]int32{e.V, id})
		adj[e.V] = append(adj[e.V], [2]int32{e.U, id})
	}
	// DFS from u to v tracking the max edge under the (W, id) order.
	type frame struct {
		vertex int32
		best   int32
	}
	heavierOf := func(a, b int32) int32 {
		if a < 0 {
			return b
		}
		if b < 0 {
			return a
		}
		if g.Edges[a].W != g.Edges[b].W {
			if g.Edges[a].W > g.Edges[b].W {
				return a
			}
			return b
		}
		if a > b {
			return a
		}
		return b
	}
	seen := map[int32]bool{u: true}
	stack := []frame{{u, -1}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.vertex == v {
			return f.best
		}
		for _, a := range adj[f.vertex] {
			if !seen[a[0]] {
				seen[a[0]] = true
				stack = append(stack, frame{a[0], heavierOf(f.best, a[1])})
			}
		}
	}
	return -1
}

func TestQueryMatchesBruteForce(t *testing.T) {
	g := gen.Random(300, 1200, 1)
	f := seq.Kruskal(g)
	idx := mustBuild(t, g, f.EdgeIDs)
	r := rng.New(2)
	for trial := 0; trial < 2000; trial++ {
		u := int32(r.Intn(g.N))
		v := int32(r.Intn(g.N))
		got := idx.Query(u, v)
		want := bruteMax(g, f.EdgeIDs, u, v)
		if u == v {
			want = -1
		}
		if got != want {
			t.Fatalf("Query(%d,%d) = %d, brute force %d", u, v, got, want)
		}
	}
}

func TestQueryDisconnected(t *testing.T) {
	g := gen.Random(400, 250, 3) // many components
	f := seq.Kruskal(g)
	idx := mustBuild(t, g, f.EdgeIDs)
	r := rng.New(4)
	for trial := 0; trial < 500; trial++ {
		u := int32(r.Intn(g.N))
		v := int32(r.Intn(g.N))
		same := !separates(g, f.EdgeIDs, -1, u, v)
		q := idx.Query(u, v)
		if !same && q != -1 {
			t.Fatalf("cross-tree query returned %d", q)
		}
		if same && u != v && q < 0 {
			t.Fatalf("same-tree query (%d,%d) returned -1", u, v)
		}
	}
}

func TestQuerySelf(t *testing.T) {
	g := gen.Random(50, 100, 5)
	f := seq.Kruskal(g)
	idx := mustBuild(t, g, f.EdgeIDs)
	if idx.Query(7, 7) != -1 {
		t.Fatal("self query must be -1")
	}
}

func TestQueryWeight(t *testing.T) {
	g := &graph.EdgeList{N: 3, Edges: []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 5},
	}}
	idx := mustBuild(t, g, []int32{0, 1})
	if id := idx.Query(0, 2); id != 1 || g.Edges[id].W != 5 {
		t.Fatalf("Query(0, 2) = %d, want the weight-5 edge 1", id)
	}
}

func TestEmptyGraph(t *testing.T) {
	idx := mustBuild(t, &graph.EdgeList{N: 0}, nil)
	_ = idx // no panic
}

func TestDeepPath(t *testing.T) {
	const n = 1 << 13
	g := &graph.EdgeList{N: n}
	for i := 0; i < n-1; i++ {
		g.Edges = append(g.Edges, graph.Edge{U: int32(i), V: int32(i + 1), W: float64(i)})
	}
	ids := make([]int32, n-1)
	for i := range ids {
		ids[i] = int32(i)
	}
	idx := mustBuild(t, g, ids)
	// Max on the path 0..n-1 is the last edge.
	if got := idx.Query(0, n-1); got != int32(n-2) {
		t.Fatalf("deep path max = %d", got)
	}
	// Max on a middle segment.
	if got := idx.Query(100, 200); got != 199 {
		t.Fatalf("segment max = %d", got)
	}
}

// mustBuild is the test-side shim over the error-returning Build.
func mustBuild(t *testing.T, g *graph.EdgeList, ids []int32) *Index {
	t.Helper()
	idx, err := Build(g, ids)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return idx
}

func TestBuildRejectsNonForest(t *testing.T) {
	line := &graph.EdgeList{N: 4, Edges: []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 0, W: 3}, {U: 2, V: 3, W: 4},
		{U: 1, V: 1, W: 5},
	}}
	cases := []struct {
		name string
		ids  []int32
		want string
	}{
		{"cycle", []int32{0, 1, 2}, "not a forest"},
		{"duplicate id", []int32{0, 0}, "not a forest"},
		{"out of range", []int32{99}, "out of range"},
		{"negative id", []int32{-1}, "out of range"},
		{"self-loop", []int32{4}, "self-loop"},
		{"edges on empty graph", nil, "empty graph"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := line
			ids := tc.ids
			if tc.name == "edges on empty graph" {
				g = &graph.EdgeList{N: 0}
				ids = []int32{0}
			}
			if _, err := Build(g, ids); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Build(%v) error = %v, want containing %q", ids, err, tc.want)
			}
		})
	}
	if _, err := Build(line, []int32{0, 1, 3}); err != nil {
		t.Fatalf("valid forest rejected: %v", err)
	}
}
