// Package dense implements parallel Borůvka over an adjacency MATRIX —
// the dense-graph formulation the paper positions itself against.
// Section 2 notes that "for dense graphs that can be represented by an
// adjacency matrix, JáJá describes a simple and efficient implementation
// [of compact-graph]", and the related-work section recalls that Dehne
// and Götz's BSP implementation "works well for sufficiently dense input
// graphs [but] is not suitable for the more challenging sparse graphs".
// This package makes that comparison concrete: compact-graph is a
// trivial O(n²/p) matrix fold here, but every iteration also SCANS the
// whole Θ(n²) matrix, so the total work is Θ(n² log n) regardless of m —
// hopeless for sparse graphs, competitive only as m approaches n².
//
// The matrix stores, for every supervertex pair, the minimum-weight
// original edge between them (weight + edge id packed per cell).
package dense

import (
	"math"

	"pmsf/internal/cc"
	"pmsf/internal/graph"
	"pmsf/internal/par"
)

// MaxN bounds the vertex count: the matrix needs 16·n² bytes.
const MaxN = 1 << 14

// Options configures a dense Borůvka run.
type Options struct {
	// Workers is the parallelism; 0 means GOMAXPROCS.
	Workers int
}

// cell is one matrix entry: the lightest original edge between two
// supervertices. id < 0 means "no edge".
type cell struct {
	w  graph.Weight
	id int32
}

func (c cell) lighter(o cell) bool {
	if o.id < 0 {
		return c.id >= 0
	}
	if c.id < 0 {
		return false
	}
	if c.w != o.w {
		return c.w < o.w
	}
	return c.id < o.id
}

// Run computes the minimum spanning forest of g with matrix Borůvka.
// It panics when g.N exceeds MaxN (the matrix would not fit; use the
// sparse algorithms).
func Run(g *graph.EdgeList, opt Options) *graph.Forest {
	n := g.N
	if n > MaxN {
		panic("dense: graph too large for an adjacency matrix; use the sparse algorithms")
	}
	p := opt.Workers
	if p <= 0 {
		p = par.DefaultWorkers()
	}
	if n == 0 {
		return &graph.Forest{}
	}

	// Build the matrix, keeping the lightest edge per unordered pair.
	mat := make([]cell, n*n)
	for i := range mat {
		mat[i].id = -1
	}
	for id, e := range g.Edges {
		if e.U == e.V {
			continue
		}
		c := cell{w: e.W, id: int32(id)}
		if c.lighter(mat[int(e.U)*n+int(e.V)]) {
			mat[int(e.U)*n+int(e.V)] = c
			mat[int(e.V)*n+int(e.U)] = c
		}
	}

	team := par.NewTeam(p)
	defer team.Close()
	res := cc.NewResolver(p, team)

	var ids []int32
	size := n // current supervertex count; matrix occupies the size×size prefix stride n
	for size > 1 {
		// find-min: scan each row of the size×size matrix.
		parent := make([]int32, size)
		sel := make([]int32, size)
		team.For(size, func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				best := cell{w: math.Inf(1), id: -1}
				bestTo := int32(v)
				row := mat[v*n : v*n+size]
				for u, c := range row {
					if u != v && c.id >= 0 && c.lighter(best) {
						best = c
						bestTo = int32(u)
					}
				}
				if best.id < 0 {
					parent[v] = int32(v)
				} else {
					parent[v] = bestTo
					sel[v] = best.id
				}
			}
		})
		selected := 0
		for v := 0; v < size; v++ {
			if int(parent[v]) != v {
				selected++
			}
		}
		if selected == 0 {
			break
		}
		// Harvest (mutual pairs owned by the smaller endpoint).
		for v := 0; v < size; v++ {
			pv := parent[v]
			if int(pv) == v || (int(parent[pv]) == v && int(pv) < v) {
				continue
			}
			ids = append(ids, sel[v])
		}
		labels, k := res.Resolve(parent)

		// compact-graph, JáJá style: fold rows and columns by label with
		// min; the k×k result overwrites the matrix prefix. Two passes
		// over the size×size matrix through a size×k intermediate.
		tmp := make([]cell, size*k)
		for i := range tmp {
			tmp[i].id = -1
		}
		team.For(size, func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				row := mat[v*n : v*n+size]
				out := tmp[v*k : (v+1)*k]
				for u, c := range row {
					if c.id < 0 {
						continue
					}
					lu := labels[u]
					if c.lighter(out[lu]) {
						out[lu] = c
					}
				}
			}
		})
		next := make([]cell, k*n) // reuse stride n for the new prefix
		for i := range next {
			next[i].id = -1
		}
		// Column fold: stripe OUTPUT rows across workers (each output row
		// folds the tmp rows of its member supervertices), so no two
		// workers write one cell. Precompute the member groups first.
		order := make([][]int32, k)
		for v := 0; v < size; v++ {
			order[labels[v]] = append(order[labels[v]], int32(v))
		}
		team.For(k, func(_, lo, hi int) {
			for lv := lo; lv < hi; lv++ {
				out := next[lv*n : lv*n+k]
				for _, v := range order[lv] {
					row := tmp[int(v)*k : (int(v)+1)*k]
					for lu, c := range row {
						if lu == lv || c.id < 0 {
							continue
						}
						if c.lighter(out[lu]) {
							out[lu] = c
						}
					}
				}
			}
		})
		copy(mat[:k*n], next)
		size = k
	}

	forest := &graph.Forest{EdgeIDs: ids, Components: size}
	for _, id := range ids {
		forest.Weight += g.Edges[id].W
	}
	return forest
}
