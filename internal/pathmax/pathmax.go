// Package pathmax answers maximum-weight-edge queries over the paths of
// a spanning forest: given a forest F of a weighted graph, Query(u, v)
// returns the heaviest F-edge on the tree path between u and v. It is
// the engine behind the cycle-property verification oracle
// (verify.CycleProperty), which catches non-minimal forests whose excess
// weight is too small for a reference-weight comparison to see. The
// index is built once per forest; the dynamic-MSF layer, whose forest
// changes, keeps path maxima in a link-cut tree instead.
//
// Construction is O(n log n) (BFS rooting + binary lifting); each query
// is O(log n).
package pathmax

import (
	"fmt"

	"pmsf/internal/graph"
)

// arc is one directed half of a forest edge.
type arc struct {
	to  int32
	eid int32
}

// Index is a built path-maximum structure over one spanning forest.
type Index struct {
	g      *graph.EdgeList
	depth  []int32
	up     [][]int32 // up[k][v]: 2^k-th ancestor
	maxe   [][]int32 // maxe[k][v]: heaviest edge id on that path (-1 none)
	comp   []int32   // tree id per vertex (root id)
	levels int
}

// Build constructs the index for the forest given by edge ids into g.
// The ids must describe a forest: every id in range, no id repeated,
// and no cycle. Build returns an explicit error otherwise.
func Build(g *graph.EdgeList, forestIDs []int32) (*Index, error) {
	n := g.N
	idx := &Index{g: g}
	if n == 0 {
		if len(forestIDs) != 0 {
			return nil, fmt.Errorf("pathmax: %d forest edges on an empty graph", len(forestIDs))
		}
		return idx, nil
	}
	deg := make([]int32, n)
	for _, id := range forestIDs {
		if id < 0 || int(id) >= len(g.Edges) {
			return nil, fmt.Errorf("pathmax: forest edge id %d out of range [0,%d)", id, len(g.Edges))
		}
		e := g.Edges[id]
		if e.U == e.V {
			return nil, fmt.Errorf("pathmax: forest edge %d is a self-loop at vertex %d", id, e.U)
		}
		deg[e.U]++
		deg[e.V]++
	}
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + deg[v]
	}
	arcs := make([]arc, off[n])
	next := make([]int32, n)
	copy(next, off[:n])
	for _, id := range forestIDs {
		e := g.Edges[id]
		arcs[next[e.U]] = arc{e.V, id}
		next[e.U]++
		arcs[next[e.V]] = arc{e.U, id}
		next[e.V]++
	}

	idx.depth = make([]int32, n)
	idx.comp = make([]int32, n)
	levels := 1
	for 1<<levels < n {
		levels++
	}
	idx.levels = levels
	idx.up = make([][]int32, levels)
	idx.maxe = make([][]int32, levels)
	for k := 0; k < levels; k++ {
		idx.up[k] = make([]int32, n)
		idx.maxe[k] = make([]int32, n)
	}

	parent := idx.up[0]
	parentEdge := idx.maxe[0]
	order := make([]int32, 0, n)
	visited := make([]bool, n)
	queue := make([]int32, 0, 64)
	trees := 0
	for root := 0; root < n; root++ {
		if visited[root] {
			continue
		}
		trees++
		visited[root] = true
		parent[root] = int32(root)
		parentEdge[root] = -1
		idx.depth[root] = 0
		idx.comp[root] = int32(root)
		queue = append(queue[:0], int32(root))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for i := off[v]; i < off[v+1]; i++ {
				a := arcs[i]
				if visited[a.to] {
					continue
				}
				visited[a.to] = true
				parent[a.to] = v
				parentEdge[a.to] = a.eid
				idx.depth[a.to] = idx.depth[v] + 1
				idx.comp[a.to] = int32(root)
				queue = append(queue, a.to)
			}
		}
	}
	// A forest has exactly n - trees edges; a duplicate id or a cycle
	// leaves extra ids whose arcs the BFS skipped.
	if len(forestIDs) != n-trees {
		return nil, fmt.Errorf("pathmax: %d forest edges over %d vertices span only %d trees: input is not a forest (cycle or duplicate id)",
			len(forestIDs), n, trees)
	}

	for k := 1; k < levels; k++ {
		up, maxe := idx.up[k], idx.maxe[k]
		prevUp, prevMax := idx.up[k-1], idx.maxe[k-1]
		for _, v := range order {
			mid := prevUp[v]
			up[v] = prevUp[mid]
			maxe[v] = idx.heavier(prevMax[v], prevMax[mid])
		}
	}
	return idx, nil
}

// heavier returns the heavier edge id (-1 means no edge). Ties break
// toward the LARGER id, so the result is the maximum under the library's
// perturbed total order (W, id) — the order every algorithm's tie-break
// induces; the weight-only verification oracle is unaffected by it.
func (idx *Index) heavier(a, b int32) int32 {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	wa, wb := idx.g.Edges[a].W, idx.g.Edges[b].W
	if wa != wb {
		if wa > wb {
			return a
		}
		return b
	}
	if a > b {
		return a
	}
	return b
}

// Query returns the id of the heaviest forest edge on the path from u to
// v, or -1 when u == v or they are in different trees.
func (idx *Index) Query(u, v int32) int32 {
	if u == v || idx.comp[u] != idx.comp[v] {
		return -1
	}
	best := int32(-1)
	if idx.depth[u] < idx.depth[v] {
		u, v = v, u
	}
	diff := idx.depth[u] - idx.depth[v]
	for k := 0; diff != 0; k++ {
		if diff&1 != 0 {
			best = idx.heavier(best, idx.maxe[k][u])
			u = idx.up[k][u]
		}
		diff >>= 1
	}
	if u == v {
		return best
	}
	for k := idx.levels - 1; k >= 0; k-- {
		if idx.up[k][u] != idx.up[k][v] {
			best = idx.heavier(best, idx.maxe[k][u])
			best = idx.heavier(best, idx.maxe[k][v])
			u = idx.up[k][u]
			v = idx.up[k][v]
		}
	}
	best = idx.heavier(best, idx.maxe[0][u])
	best = idx.heavier(best, idx.maxe[0][v])
	return best
}
