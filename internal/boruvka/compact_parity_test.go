package boruvka

import (
	"math"
	"math/rand/v2"
	"testing"

	"pmsf/internal/graph"
)

// Parity tests for the packed-key parallel radix compactor: on every
// input, CompactWorkList(SortParallelRadix, ...) must reproduce the
// reference sample-sort CompactWorkList element for element,
// including the segment starts. The weights are chosen adversarially:
// the kernel sorts on (U, V) only and picks the representative with a
// (W, ID) min-reduction, so any divergence between '<' on float64 and
// the comparator ordering (negative zero, infinities, denormals, exact
// ties) would show up here.

// adversarialWeights is the pool the property tests draw from.
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

// checkCompactParity asserts the packed-key kernel and the reference
// engine agree exactly on one input, at several worker counts.
func checkCompactParity(t *testing.T, name string, edges []graph.WEdge, n int) {
	t.Helper()
	ref := make([]graph.WEdge, len(edges))
	copy(ref, edges)
	wantOut, wantStarts := CompactWorkList(SortSampleSort, 1, ref, n, 7)
	for _, p := range []int{1, 3, 8} {
		work := make([]graph.WEdge, len(edges))
		copy(work, edges)
		gotOut, gotStarts := CompactWorkList(SortParallelRadix, p, work, n, 7)
		if len(gotOut) != len(wantOut) {
			t.Fatalf("%s p=%d: %d edges, reference kept %d", name, p, len(gotOut), len(wantOut))
		}
		for i := range wantOut {
			g, w := gotOut[i], wantOut[i]
			// Compare W by bit pattern: the representative must be the
			// same edge, so even -0.0 vs +0.0 must match exactly.
			if g.U != w.U || g.V != w.V || g.ID != w.ID ||
				math.Float64bits(float64(g.W)) != math.Float64bits(float64(w.W)) {
				t.Fatalf("%s p=%d: edge %d is %+v, reference has %+v", name, p, i, g, w)
			}
		}
		if len(gotStarts) != len(wantStarts) {
			t.Fatalf("%s p=%d: %d starts, reference has %d", name, p, len(gotStarts), len(wantStarts))
		}
		for i := range wantStarts {
			if gotStarts[i] != wantStarts[i] {
				t.Fatalf("%s p=%d: starts[%d]=%d, reference has %d", name, p, i, gotStarts[i], wantStarts[i])
			}
		}
	}
}

// TestCompactParityAdversarial covers the handcrafted corner cases.
func TestCompactParityAdversarial(t *testing.T) {
	type tc struct {
		name  string
		n     int
		edges []graph.WEdge
	}
	cases := []tc{
		{"empty", 4, nil},
		{"all-self-loops", 3, []graph.WEdge{
			{U: 0, V: 0, W: 1, ID: 0}, {U: 2, V: 2, W: 2, ID: 1},
		}},
		{"negative-zero-tie", 2, []graph.WEdge{
			// -0.0 and +0.0 compare equal; the smaller ID must win and
			// its exact weight bits must be kept.
			{U: 0, V: 1, W: 0, ID: 5},
			{U: 0, V: 1, W: graph.Weight(math.Copysign(0, -1)), ID: 2},
			{U: 1, V: 0, W: graph.Weight(math.Copysign(0, -1)), ID: 9},
			{U: 1, V: 0, W: 0, ID: 1},
		}},
		{"infinities", 3, []graph.WEdge{
			{U: 0, V: 1, W: graph.Weight(math.Inf(1)), ID: 0},
			{U: 0, V: 1, W: graph.Weight(math.Inf(-1)), ID: 1},
			{U: 0, V: 2, W: graph.Weight(math.Inf(1)), ID: 2},
			{U: 0, V: 2, W: graph.Weight(math.Inf(1)), ID: 3},
			{U: 2, V: 0, W: 4, ID: 4},
		}},
		{"denormals", 2, []graph.WEdge{
			{U: 0, V: 1, W: 5e-324, ID: 0},
			{U: 0, V: 1, W: -5e-324, ID: 1},
			{U: 0, V: 1, W: 0, ID: 2},
			{U: 1, V: 0, W: -5e-324, ID: 3},
		}},
		{"all-equal-weights", 4, func() []graph.WEdge {
			var es []graph.WEdge
			id := int32(0)
			for u := int32(0); u < 4; u++ {
				for v := int32(0); v < 4; v++ {
					for r := 0; r < 3; r++ { // duplicate (U, V) runs
						es = append(es, graph.WEdge{U: u, V: v, W: 1.5, ID: id})
						id++
					}
				}
			}
			// Shuffle deterministically so ids arrive out of order.
			rng := rand.New(rand.NewPCG(1, 2))
			rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
			return es
		}()},
		{"single-vertex", 1, []graph.WEdge{{U: 0, V: 0, W: 3, ID: 0}}},
	}
	for _, c := range cases {
		checkCompactParity(t, c.name, c.edges, c.n)
	}
}

// TestCompactParityRandom is the randomized property test: many small
// graphs with heavy (U, V) duplication and weights drawn from the
// adversarial pool, so exact ties and sign-of-zero cases occur
// constantly.
func TestCompactParityRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 99))
	iters := 200
	if testing.Short() {
		iters = 40
	}
	for it := 0; it < iters; it++ {
		n := 1 + rng.IntN(40)
		m := rng.IntN(6 * n)
		edges := make([]graph.WEdge, m)
		for i := range edges {
			edges[i] = graph.WEdge{
				U:  int32(rng.IntN(n)),
				V:  int32(rng.IntN(n)),
				W:  adversarialWeights[rng.IntN(len(adversarialWeights))],
				ID: int32(i),
			}
		}
		checkCompactParity(t, "random", edges, n)
	}
}

// FuzzCompactParity lets the fuzzer search for divergences between the
// packed-key kernel and the comparator-based reference.
func FuzzCompactParity(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint16(30))
	f.Add(uint64(77), uint8(1), uint16(0))
	f.Add(uint64(3), uint8(40), uint16(400))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, mRaw uint16) {
		n := 1 + int(nRaw)%64
		m := int(mRaw) % 512
		rng := rand.New(rand.NewPCG(seed, 0))
		edges := make([]graph.WEdge, m)
		for i := range edges {
			edges[i] = graph.WEdge{
				U:  int32(rng.IntN(n)),
				V:  int32(rng.IntN(n)),
				W:  adversarialWeights[rng.IntN(len(adversarialWeights))],
				ID: int32(i),
			}
		}
		checkCompactParity(t, "fuzz", edges, n)
	})
}
