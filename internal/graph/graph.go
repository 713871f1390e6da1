// Package graph defines the graph representations used by the MSF
// algorithms: the undirected edge list (the canonical input form), the
// cache-friendly adjacency array (CSR), and the paper's flexible adjacency
// list (a linked list of adjacency arrays per supervertex).
//
// Vertices are dense int32 identifiers in [0, N). Every undirected edge
// has a stable int32 edge identifier (its index in the canonical edge
// list) so that algorithms can report the exact set of selected edges
// regardless of how many times the graph has been contracted.
package graph

import (
	"errors"
	"fmt"
	"math"
)

// Vertex is a dense vertex identifier.
type Vertex = int32

// Weight is an edge weight. The paper assumes distinct weights; the
// library breaks ties by edge identifier so arbitrary weights are safe.
type Weight = float64

// Edge is one undirected edge of the canonical input edge list.
type Edge struct {
	U, V Vertex
	W    Weight
}

// EdgeList is the canonical undirected graph: N vertices and one record
// per undirected edge. Self-loops are permitted in the input (they are
// never part of any MSF) but parallel edges are allowed and handled.
type EdgeList struct {
	N     int
	Edges []Edge
}

// M returns the number of undirected edges.
func (g *EdgeList) M() int { return len(g.Edges) }

// Validate checks structural invariants: endpoint ranges and finite N.
func (g *EdgeList) Validate() error {
	if g.N < 0 {
		return errors.New("graph: negative vertex count")
	}
	for i, e := range g.Edges {
		if e.U < 0 || int(e.U) >= g.N || e.V < 0 || int(e.V) >= g.N {
			return fmt.Errorf("graph: edge %d (%d,%d) out of range [0,%d)", i, e.U, e.V, g.N)
		}
		if math.IsNaN(e.W) {
			// NaN breaks every weight comparator (sorting becomes
			// undefined behaviour), so it is rejected at the boundary.
			return fmt.Errorf("graph: edge %d has NaN weight", i)
		}
	}
	return nil
}

// Clone returns a deep copy of the edge list.
func (g *EdgeList) Clone() *EdgeList {
	edges := make([]Edge, len(g.Edges))
	copy(edges, g.Edges)
	return &EdgeList{N: g.N, Edges: edges}
}

// AdjEntry is one directed arc of an adjacency array: the target vertex,
// the weight, and the identifier of the underlying undirected edge. Each
// undirected edge (u,v) contributes two entries, one in u's list and one
// in v's list, sharing the same EID.
type AdjEntry struct {
	To  Vertex
	EID int32
	W   Weight
}

// AdjArray is the adjacency-array (CSR) representation: Off has length
// N+1 and vertex v's arcs are Arcs[Off[v]:Off[v+1]].
type AdjArray struct {
	N    int
	Off  []int64
	Arcs []AdjEntry
}

// Degree returns the number of arcs incident to v.
func (a *AdjArray) Degree(v Vertex) int { return int(a.Off[v+1] - a.Off[v]) }

// Adj returns the arc slice of v.
func (a *AdjArray) Adj(v Vertex) []AdjEntry { return a.Arcs[a.Off[v]:a.Off[v+1]] }

// M returns the number of undirected edges (arcs / 2).
func (a *AdjArray) M() int { return len(a.Arcs) / 2 }

// BuildAdj converts an edge list to adjacency arrays with a counting-sort
// pass. Self-loops in the input are dropped here: they contribute nothing
// to any spanning forest and the CSR form is the working form of every
// algorithm in this library.
func BuildAdj(g *EdgeList) *AdjArray {
	n := g.N
	off := make([]int64, n+1)
	for _, e := range g.Edges {
		if e.U == e.V {
			continue
		}
		off[e.U+1]++
		off[e.V+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	arcs := make([]AdjEntry, off[n])
	next := make([]int64, n)
	copy(next, off[:n])
	for id, e := range g.Edges {
		if e.U == e.V {
			continue
		}
		arcs[next[e.U]] = AdjEntry{To: e.V, EID: int32(id), W: e.W}
		next[e.U]++
		arcs[next[e.V]] = AdjEntry{To: e.U, EID: int32(id), W: e.W}
		next[e.V]++
	}
	return &AdjArray{N: n, Off: off, Arcs: arcs}
}

// Validate checks CSR structural invariants.
func (a *AdjArray) Validate() error {
	if len(a.Off) != a.N+1 {
		return fmt.Errorf("graph: offset array has length %d, want %d", len(a.Off), a.N+1)
	}
	if a.N > 0 && a.Off[0] != 0 {
		return errors.New("graph: offsets must start at 0")
	}
	for v := 0; v < a.N; v++ {
		if a.Off[v] > a.Off[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
	}
	if a.N >= 0 && len(a.Off) > 0 && a.Off[a.N] != int64(len(a.Arcs)) {
		return fmt.Errorf("graph: final offset %d != arc count %d", a.Off[a.N], len(a.Arcs))
	}
	for i, arc := range a.Arcs {
		if arc.To < 0 || int(arc.To) >= a.N {
			return fmt.Errorf("graph: arc %d targets out-of-range vertex %d", i, arc.To)
		}
	}
	return nil
}

// WEdge is a working edge used by the edge-list Borůvka variant: current
// supervertex endpoints plus weight and the original edge identifier.
type WEdge struct {
	U, V Vertex
	ID   int32
	W    Weight
}

// DirectedWorkList builds the Bor-EL working list: each undirected edge
// appears twice, (u,v) and (v,u), as the paper prescribes, so that a sort
// on the first endpoint groups every vertex's incident edges together.
// Self-loops are dropped.
func DirectedWorkList(g *EdgeList) []WEdge {
	return FillDirected(make([]WEdge, 2*len(g.Edges)), g.Edges)
}

// FillDirected writes the directed working list of edges (see
// DirectedWorkList) into dst, which needs room for 2·len(edges) arcs,
// and returns the filled prefix. Arc ids are indices into edges.
func FillDirected(dst []WEdge, edges []Edge) []WEdge {
	k := 0
	for id, e := range edges {
		if e.U == e.V {
			continue
		}
		dst[k] = WEdge{U: e.U, V: e.V, ID: int32(id), W: e.W}
		dst[k+1] = WEdge{U: e.V, V: e.U, ID: int32(id), W: e.W}
		k += 2
	}
	return dst[:k]
}

// ComponentCount returns the number of connected components of g using a
// sequential union-find. It is used by tests and the verification oracle.
func ComponentCount(g *EdgeList) int {
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
	comps := g.N
	for _, e := range g.Edges {
		ru, rv := find(e.U), find(e.V)
		if ru != rv {
			parent[ru] = rv
			comps--
		}
	}
	return comps
}

// DisjointUnion concatenates the graphs as independent components: the
// vertices of each successive graph are shifted past the previous ones.
// Useful for building forests of known cluster structure (see
// examples/components).
func DisjointUnion(gs ...*EdgeList) *EdgeList {
	out := &EdgeList{}
	for _, g := range gs {
		base := Vertex(out.N)
		for _, e := range g.Edges {
			out.Edges = append(out.Edges, Edge{U: base + e.U, V: base + e.V, W: e.W})
		}
		out.N += g.N
	}
	return out
}
