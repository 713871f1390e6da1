package mstbc

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"testing"

	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/seq"
	"pmsf/internal/verify"
)

// adversarialWeights is the weight pool of the compaction parity tests
// (internal/boruvka/compact_parity_test.go): the two-level kernel
// sorts on (U, V) only and picks each duplicate run's representative by
// a (W, ID) min-reduction, so negative zero, infinities, denormals and
// exact ties are where it could diverge from a comparator sort.
var adversarialWeights = []graph.Weight{
	0.0,
	math.Copysign(0, -1), // -0.0: == 0.0 under <, distinct bit pattern
	math.Inf(1),
	math.Inf(-1),
	5e-324,  // smallest positive denormal
	-5e-324, // largest negative denormal
	1.0,
	-1.0,
	math.MaxFloat64,
	-math.MaxFloat64,
}

// adversarialGraph draws a multigraph with heavy (U, V) duplication,
// self-loops and weights from the adversarial pool.
func adversarialGraph(n, m int, seed uint64) *graph.EdgeList {
	rng := rand.New(rand.NewPCG(seed, 0x7e57))
	g := &graph.EdgeList{N: n, Edges: make([]graph.Edge, m)}
	for i := range g.Edges {
		g.Edges[i] = graph.Edge{
			U: int32(rng.IntN(n)),
			V: int32(rng.IntN(n)),
			W: adversarialWeights[rng.IntN(len(adversarialWeights))],
		}
	}
	return g
}

// sortedWeights returns the forest's edge weights in ascending order.
// Every MSF of a graph has the same sorted weight sequence, so two
// forests are both minimum iff these agree element for element; unlike
// the weight totals, the comparison does not depend on summation order
// (a sum of ±MaxFloat64 and infinities can overflow or turn NaN in one
// order and not another).
func sortedWeights(g *graph.EdgeList, f *graph.Forest) []graph.Weight {
	ws := make([]graph.Weight, len(f.EdgeIDs))
	for i, id := range f.EdgeIDs {
		ws[i] = g.Edges[id].W
	}
	sort.Float64s(ws)
	return ws
}

// TestMultiLevelExactness runs MST-BC with a base size small enough
// that the run goes past level 0, on adversarially weighted multigraphs,
// and checks every forest against Kruskal: the same sorted weights, edge
// count and component count, and a forest the verifier accepts. The
// sparse shape contracts several levels through the two-level
// compactor; the dense ones leave at least denseFactor live edges per
// supervertex after a level, which hands that level's labels to the
// finish uncontracted.
//
// How a run goes depends on how the workers' trees meet, so each case
// runs at least four seeds, and more (up to 32) until one takes the
// shape's path. With one OS thread a single tree usually absorbs its
// whole component in level 0, so the path requirement applies only
// when GOMAXPROCS > 1.
func TestMultiLevelExactness(t *testing.T) {
	shapes := []struct {
		n, m  int
		dense bool // a level hands off, rather than two contracting
	}{
		{2000, 6000, true},
		{3000, 4500, false}, // sparse: many components and isolated vertices
		{5000, 20000, true},
	}
	for si, sh := range shapes {
		g := adversarialGraph(sh.n, sh.m, uint64(si)+1)
		ref := seq.Kruskal(g)
		want := sortedWeights(g, ref)
		for _, p := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("n=%d/m=%d/p=%d", sh.n, sh.m, p), func(t *testing.T) {
				multi := p > 1 && runtime.GOMAXPROCS(0) > 1
				maxLevels, handedOff := 0, false
				covered := func() bool {
					if sh.dense {
						return handedOff
					}
					return maxLevels >= 2
				}
				for seed := uint64(0); seed < 32; seed++ {
					if seed >= 4 && (covered() || !multi) {
						break
					}
					tr := obs.NewCollector()
					f := Run(g, Options{Workers: p, BaseSize: 8, Seed: seed, Trace: tr})
					s := tr.Summarize(nil)
					maxLevels = max(maxLevels, s.Counts["level"])
					handedOff = handedOff || s.Args["finish.dense"] == 1
					if len(f.EdgeIDs) != len(ref.EdgeIDs) {
						t.Fatalf("seed %d: %d forest edges, Kruskal has %d", seed, len(f.EdgeIDs), len(ref.EdgeIDs))
					}
					if f.Components != ref.Components {
						t.Fatalf("seed %d: %d components, Kruskal has %d", seed, f.Components, ref.Components)
					}
					got := sortedWeights(g, f)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("seed %d: weight %d of the sorted forest is %g, Kruskal has %g", seed, i, got[i], want[i])
						}
					}
					if err := verify.Minimum(g, f); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
				if multi && !covered() {
					t.Fatalf("no seed of 32 took the path (dense hand-off %v: max %d levels, handed off %v)", sh.dense, maxLevels, handedOff)
				}
			})
		}
	}
}
