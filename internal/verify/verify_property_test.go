package verify

// Property-based adversarial testing of the oracle itself: random valid
// forests must pass; random single-edge corruptions must fail at least
// one layer.

import (
	"testing"
	"testing/quick"

	"pmsf/internal/gen"
	"pmsf/internal/rng"
	"pmsf/internal/seq"
)

func TestOracleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(120)
		maxM := n * (n - 1) / 2
		m := 2 + r.Intn(maxM-1)
		g := gen.Random(n, m, r.Uint64())
		forest := seq.Kruskal(g)
		if Minimum(g, forest) != nil {
			return false // a correct forest must pass everything
		}
		if len(forest.EdgeIDs) == 0 {
			return true
		}
		// Corrupt: replace one forest edge id with a random non-forest id.
		inForest := map[int32]bool{}
		for _, id := range forest.EdgeIDs {
			inForest[id] = true
		}
		var candidates []int32
		for id := range g.Edges {
			if !inForest[int32(id)] && g.Edges[id].U != g.Edges[id].V {
				candidates = append(candidates, int32(id))
			}
		}
		if len(candidates) == 0 {
			return true // tree graph: nothing to corrupt with
		}
		bad := *forest
		bad.EdgeIDs = append([]int32(nil), forest.EdgeIDs...)
		bad.EdgeIDs[r.Intn(len(bad.EdgeIDs))] = candidates[r.Intn(len(candidates))]
		bad.Weight = bad.SumWeights(g)
		// The corruption either breaks the structure (cycle / not
		// spanning) or yields a spanning tree that is not minimum — or,
		// rarely, swaps in an equal-weight alternative MSF edge, which is
		// legitimately accepted. Accept "caught" or "equal weight".
		err := Minimum(g, &bad)
		if err != nil {
			return true
		}
		d := bad.Weight - forest.Weight
		return d < 1e-9 && d > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Weight tampering alone (ids untouched) is always caught.
func TestOracleWeightTamperProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed ^ 0x55aa)
		n := 3 + r.Intn(100)
		m := 2 * n
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := gen.Random(n, m, r.Uint64())
		forest := seq.Prim(g)
		bad := *forest
		bad.Weight += 1 + r.Float64()
		return Minimum(g, &bad) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
