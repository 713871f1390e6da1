// Package gen implements the paper's input graph generators (Section
// 5.1): uniform random graphs, regular 2D meshes, the 2D60 and 3D40
// irregular meshes, fixed-degree geometric graphs, and the structured
// worst-case inputs str0-str3 of Chung and Condon. All generators are
// deterministic functions of their seed.
package gen

import (
	"fmt"
	"sort"

	"pmsf/internal/graph"
	"pmsf/internal/rng"
)

// Random returns an Erdős–Rényi-style G(n, m) graph: m unique undirected
// edges chosen uniformly at random among the n(n-1)/2 possibilities (no
// self-loops, no parallel edges), with uniform random weights in [0, 1).
// This matches the paper's "random graph" generator (the LEDA scheme).
func Random(n, m int, seed uint64) *graph.EdgeList {
	if n < 2 {
		return &graph.EdgeList{N: n}
	}
	maxM := int64(n) * int64(n-1) / 2
	if int64(m) > maxM {
		panic(fmt.Sprintf("gen: m=%d exceeds max %d for n=%d", m, maxM, n))
	}
	r := rng.New(seed)
	var keys []uint64
	if 2*int64(m) > maxM {
		keys = densePairs(n, m, r)
	} else {
		keys = sparsePairs(n, m, r)
	}
	edges := make([]graph.Edge, m)
	for i, k := range keys {
		edges[i] = graph.Edge{
			U: int32(k >> 32),
			V: int32(k & 0xffffffff),
			W: r.Float64(),
		}
	}
	return &graph.EdgeList{N: n, Edges: edges}
}

// sparsePairs draws candidate endpoint pairs, dedupes by sorting packed
// keys, and tops up until exactly m unique pairs exist. This is
// O(m log m) without a giant hash table while m is at most half of all
// pairs; nearer the complete graph the top-up rounds stall on
// duplicates.
func sparsePairs(n, m int, r *rng.Xoshiro256) []uint64 {
	keys := make([]uint64, 0, m+m/8)
	for len(keys) < m {
		need := m - len(keys)
		for i := 0; i < need+need/8+8; i++ {
			u := r.Intn(n)
			v := r.Intn(n - 1)
			if v >= u {
				v++
			}
			if u > v {
				u, v = v, u
			}
			keys = append(keys, uint64(u)<<32|uint64(v))
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		keys = dedupeUint64(keys)
		if len(keys) > m {
			// Drop a deterministic random subset of the surplus.
			r.ShuffleUint64(keys)
			keys = keys[:m]
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		}
	}
	return keys
}

// densePairs picks m of all n(n-1)/2 pairs by shuffling the full list:
// O(n^2) work, used when m is more than half of the pairs.
func densePairs(n, m int, r *rng.Xoshiro256) []uint64 {
	keys := make([]uint64, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			keys = append(keys, uint64(u)<<32|uint64(v))
		}
	}
	r.ShuffleUint64(keys)
	keys = keys[:m]
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func dedupeUint64(a []uint64) []uint64 {
	if len(a) == 0 {
		return a
	}
	out := a[:1]
	for _, v := range a[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// Mesh2D returns a rows×cols regular 2D mesh: each vertex connects to its
// right and down neighbors where they exist. Weights are uniform random.
func Mesh2D(rows, cols int, seed uint64) *graph.EdgeList {
	r := rng.New(seed)
	n := rows * cols
	edges := make([]graph.Edge, 0, 2*n)
	at := func(i, j int) int32 { return int32(i*cols + j) }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols {
				edges = append(edges, graph.Edge{U: at(i, j), V: at(i, j+1), W: r.Float64()})
			}
			if i+1 < rows {
				edges = append(edges, graph.Edge{U: at(i, j), V: at(i+1, j), W: r.Float64()})
			}
		}
	}
	return &graph.EdgeList{N: n, Edges: edges}
}

// Mesh2D60 returns the paper's "2D60" input: a 2D mesh where each
// potential edge is present with probability 60%.
func Mesh2D60(rows, cols int, seed uint64) *graph.EdgeList {
	return sparseMesh2D(rows, cols, 0.60, seed)
}

func sparseMesh2D(rows, cols int, prob float64, seed uint64) *graph.EdgeList {
	r := rng.New(seed)
	n := rows * cols
	edges := make([]graph.Edge, 0, int(float64(2*n)*prob)+16)
	at := func(i, j int) int32 { return int32(i*cols + j) }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols && r.Float64() < prob {
				edges = append(edges, graph.Edge{U: at(i, j), V: at(i, j+1), W: r.Float64()})
			}
			if i+1 < rows && r.Float64() < prob {
				edges = append(edges, graph.Edge{U: at(i, j), V: at(i+1, j), W: r.Float64()})
			}
		}
	}
	return &graph.EdgeList{N: n, Edges: edges}
}

// Mesh3D40 returns the paper's "3D40" input: a 3D mesh (6-neighbor
// connectivity) where each potential edge is present with probability
// 40%.
func Mesh3D40(side int, seed uint64) *graph.EdgeList {
	const prob = 0.40
	r := rng.New(seed)
	n := side * side * side
	edges := make([]graph.Edge, 0, int(float64(3*n)*prob)+16)
	at := func(x, y, z int) int32 { return int32((x*side+y)*side + z) }
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			for z := 0; z < side; z++ {
				if x+1 < side && r.Float64() < prob {
					edges = append(edges, graph.Edge{U: at(x, y, z), V: at(x+1, y, z), W: r.Float64()})
				}
				if y+1 < side && r.Float64() < prob {
					edges = append(edges, graph.Edge{U: at(x, y, z), V: at(x, y+1, z), W: r.Float64()})
				}
				if z+1 < side && r.Float64() < prob {
					edges = append(edges, graph.Edge{U: at(x, y, z), V: at(x, y, z+1), W: r.Float64()})
				}
			}
		}
	}
	return &graph.EdgeList{N: n, Edges: edges}
}

// Permute relabels the vertices of g by a uniform random permutation,
// returning a new graph. The paper uses random vertex reordering both to
// decorrelate generator artifacts and as MST-BC's progress guarantee.
func Permute(g *graph.EdgeList, seed uint64) *graph.EdgeList {
	r := rng.New(seed)
	perm := r.Perm(g.N)
	edges := make([]graph.Edge, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = graph.Edge{U: perm[e.U], V: perm[e.V], W: e.W}
	}
	return &graph.EdgeList{N: g.N, Edges: edges}
}
