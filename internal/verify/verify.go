// Package verify is the correctness oracle for MSF results. It has two
// tiers. Forest checks structure: edge ids in range without duplicates,
// no self-loops, acyclic, spanning every connected component of the
// input, and a reported weight that matches the edges. Minimum adds
// minimality: the forest's sorted edge weights must equal those of an
// independently computed Kruskal reference exactly. Every MSF of a
// graph has the same sorted weight sequence, so this decides
// minimality without a tolerance, also under ties, where two minimum
// forests may hold different edges. Kruskal itself is checked edge for
// edge against Prim, Borůvka and Filter-Kruskal (internal/seq tests).
package verify

import (
	"fmt"
	"math"
	"sort"

	"pmsf/internal/graph"
	"pmsf/internal/seq"
	"pmsf/internal/uf"
)

// Forest checks the structural validity of f against g: edge ids in
// range, no duplicate ids, acyclic, and exactly N - Components edges with
// Components equal to the true component count of g. It returns nil when
// f is a spanning forest (not necessarily minimal; see Minimum).
func Forest(g *graph.EdgeList, f *graph.Forest) error {
	seen := make(map[int32]bool, len(f.EdgeIDs))
	u := uf.New(g.N)
	for _, id := range f.EdgeIDs {
		if id < 0 || int(id) >= len(g.Edges) {
			return fmt.Errorf("verify: edge id %d out of range [0,%d)", id, len(g.Edges))
		}
		if seen[id] {
			return fmt.Errorf("verify: duplicate edge id %d", id)
		}
		seen[id] = true
		e := g.Edges[id]
		if e.U == e.V {
			return fmt.Errorf("verify: self-loop %d selected", id)
		}
		if !u.Union(e.U, e.V) {
			return fmt.Errorf("verify: edge id %d (%d-%d) closes a cycle", id, e.U, e.V)
		}
	}
	trueComponents := graph.ComponentCount(g)
	if f.Components != trueComponents {
		return fmt.Errorf("verify: reported %d components, graph has %d", f.Components, trueComponents)
	}
	if got, want := len(f.EdgeIDs), g.N-trueComponents; got != want {
		return fmt.Errorf("verify: forest has %d edges, spanning forest needs %d", got, want)
	}
	// Spanning: the union-find over forest edges must produce exactly the
	// same partition cardinality as the graph itself.
	if u.Count() != trueComponents {
		return fmt.Errorf("verify: forest connects %d components, graph has %d", u.Count(), trueComponents)
	}
	// Weight consistency.
	if w := f.SumWeights(g); !closeEnough(w, f.Weight) {
		return fmt.Errorf("verify: reported weight %g, edges sum to %g", f.Weight, w)
	}
	return nil
}

// Minimum checks that f is a minimum spanning forest: its sorted edge
// weights must equal those of an independently computed Kruskal
// reference, and the error names the first position where they differ.
// Totals cannot decide this: a tolerance lets a heavier forest through,
// and a total of ±MaxFloat64 or infinite weights depends on summation
// order. It implies Forest's checks.
func Minimum(g *graph.EdgeList, f *graph.Forest) error {
	if err := Forest(g, f); err != nil {
		return err
	}
	want, got := sortedWeights(g, seq.Kruskal(g)), sortedWeights(g, f)
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("verify: sorted weight %d of %d is %.17g, reference MSF has %.17g",
				i, len(want), got[i], want[i])
		}
	}
	return nil
}

// sortedWeights returns the weights of f's edges in ascending order.
func sortedWeights(g *graph.EdgeList, f *graph.Forest) []float64 {
	w := make([]float64, len(f.EdgeIDs))
	for i, id := range f.EdgeIDs {
		w[i] = g.Edges[id].W
	}
	sort.Float64s(w)
	return w
}

// closeEnough compares weights with a relative tolerance absorbing
// floating-point summation-order differences. An infinite total matches
// only an equal one, and two NaN totals match (a forest holding both a
// +Inf and a -Inf edge sums to NaN in every order).
func closeEnough(a, b float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}
