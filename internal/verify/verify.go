// Package verify is the correctness oracle for MSF results. It checks
// that a claimed forest (a) uses only valid edge identifiers without
// duplicates, (b) is acyclic, (c) spans every connected component of the
// input, (d) reports a consistent weight, and (e) matches the weight of
// an independently computed reference MSF (Kruskal). With distinct edge
// weights the MSF is unique, so weight equality implies edge-set
// equality; the checks still hold under ties because both sides break
// ties identically by edge id.
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

// Minimum checks that f is a minimum spanning forest by comparing its
// weight against an independently computed Kruskal reference. It implies
// Forest's checks.
func Minimum(g *graph.EdgeList, f *graph.Forest) error {
	if err := Forest(g, f); err != nil {
		return err
	}
	ref := seq.Kruskal(g)
	if !closeEnough(ref.Weight, f.Weight) && !sameWeights(g, ref, f) {
		return fmt.Errorf("verify: weight %.9g differs from reference MSF weight %.9g (delta %g)",
			f.Weight, ref.Weight, f.Weight-ref.Weight)
	}
	return nil
}

// sameWeights reports whether forests a and b of g have equal sorted
// edge-weight sequences. Every MSF of g has the same sequence, so this
// decides minimality exactly where weight totals cannot: a total of
// ±MaxFloat64 or infinite weights depends on summation order (it can
// overflow to ±Inf, or reach NaN, in one order and not another).
func sameWeights(g *graph.EdgeList, a, b *graph.Forest) bool {
	if len(a.EdgeIDs) != len(b.EdgeIDs) {
		return false
	}
	wa, wb := make([]float64, len(a.EdgeIDs)), make([]float64, len(b.EdgeIDs))
	for i := range a.EdgeIDs {
		wa[i], wb[i] = g.Edges[a.EdgeIDs[i]].W, g.Edges[b.EdgeIDs[i]].W
	}
	sort.Float64s(wa)
	sort.Float64s(wb)
	for i := range wa {
		if wa[i] != wb[i] {
			return false
		}
	}
	return true
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
