package pathmax

// Property tests driving the index with random forests built directly
// (not via an MSF), including unbalanced shapes.

import (
	"testing"
	"testing/quick"

	"pmsf/internal/graph"
	"pmsf/internal/rng"
)

// randomForest builds a random spanning structure: each vertex v > 0
// attaches to a random earlier vertex with probability attach, so the
// result is a forest with geometric depth variety.
func randomForest(n int, seed uint64) (*graph.EdgeList, []int32) {
	r := rng.New(seed)
	g := &graph.EdgeList{N: n}
	var ids []int32
	for v := 1; v < n; v++ {
		if r.Intn(5) == 0 {
			continue // new root
		}
		u := int32(r.Intn(v))
		g.Edges = append(g.Edges, graph.Edge{U: u, V: int32(v), W: r.Float64()})
		ids = append(ids, int32(len(g.Edges)-1))
	}
	return g, ids
}

func TestQueryPropertyOnRandomForests(t *testing.T) {
	f := func(seed uint64) bool {
		n := 2 + int(seed%120)
		g, ids := randomForest(n, seed)
		idx := mustBuild(t, g, ids)
		r := rng.New(seed ^ 0xf00)
		for trial := 0; trial < 50; trial++ {
			u := int32(r.Intn(n))
			v := int32(r.Intn(n))
			q := idx.Query(u, v)
			if u == v {
				if q != -1 {
					return false
				}
				continue
			}
			if separates(g, ids, -1, u, v) {
				if q != -1 {
					return false
				}
				continue
			}
			if q < 0 {
				return false
			}
			// The reported edge must lie on the u..v path: removing it
			// must separate u and v.
			if !separates(g, ids, q, u, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// separates reports whether removing edge cut from the forest
// disconnects u and v.
func separates(g *graph.EdgeList, ids []int32, cut, u, v int32) bool {
	parent := make([]int32, g.N)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, id := range ids {
		if id == cut {
			continue
		}
		e := g.Edges[id]
		ru, rv := find(e.U), find(e.V)
		if ru != rv {
			parent[ru] = rv
		}
	}
	return find(u) != find(v)
}
