package boruvka

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"pmsf/internal/graph"
	"pmsf/internal/sorts"
)

// Parity tests for the two-level radix compactor: on every input,
// CompactWorkList(SortParallelRadix, ...) must reproduce the reference
// sample-sort CompactWorkList element for element, including the
// segment starts. The weights are chosen adversarially: the kernel
// sorts on (U, V) only and picks the representative with a (W, ID)
// min-reduction, so any divergence between '<' on float64 and the
// comparator ordering (negative zero, infinities, denormals, exact
// ties) would show up here. The shapes are chosen to reach both
// per-segment sorts: insertion sort up to sorts.InsertionCutoff edges,
// LSD radix on one or more 8-bit digits of V beyond it.

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

// checkCompactParity asserts the two-level kernel and the reference
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

// hubEdges draws m edges over n vertices whose U is one of hubs hub
// vertices half the time, so the hubs' segments run long enough for
// the LSD path while the rest stay short. V is uniform, so it spans
// every digit of n, and about one edge in four repeats the previous
// (U, V) pair.
func hubEdges(rng *rand.Rand, n, m, hubs int) []graph.WEdge {
	edges := make([]graph.WEdge, m)
	for i := range edges {
		u, v := int32(rng.IntN(n)), int32(rng.IntN(n))
		if rng.IntN(2) == 0 {
			u = int32(rng.IntN(min(hubs, n)) * (n / min(hubs, n)))
		}
		if i > 0 && rng.IntN(4) == 0 {
			u, v = edges[i-1].U, edges[i-1].V
		}
		edges[i] = graph.WEdge{
			U:  u,
			V:  v,
			W:  adversarialWeights[rng.IntN(len(adversarialWeights))],
			ID: int32(i),
		}
	}
	return edges
}

// segmentOf returns the arcs of a U segment of exactly length edges
// (self-loop free) plus a short neighbouring segment, over n vertices.
func segmentOf(rng *rand.Rand, n, length int) []graph.WEdge {
	var edges []graph.WEdge
	for i := 0; i < length; i++ {
		edges = append(edges, graph.WEdge{U: 0, V: int32(1 + rng.IntN(n-1)),
			W: adversarialWeights[rng.IntN(len(adversarialWeights))], ID: int32(i)})
	}
	edges = append(edges, graph.WEdge{U: int32(n - 1), V: 0, W: 1, ID: int32(length)})
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// TestCompactParityTwoLevel covers the shapes of the two-level kernel:
// one segment holding every arc, segment lengths around the insertion
// cutoff, and vertex counts where V gains a radix digit.
func TestCompactParityTwoLevel(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	star := func(n int) []graph.WEdge {
		var es []graph.WEdge
		for v := 1; v < n; v++ {
			w := adversarialWeights[rng.IntN(len(adversarialWeights))]
			es = append(es, graph.WEdge{U: 0, V: int32(v), W: w, ID: int32(v)},
				graph.WEdge{U: int32(v), V: 0, W: w, ID: int32(v)})
		}
		rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		return es
	}
	checkCompactParity(t, "star", star(3000), 3000)
	// Two supervertices after contraction: every arc is a duplicate of
	// (0, 1) or (1, 0), so each segment is one long run.
	pair := hubEdges(rng, 2, 5000, 2)
	checkCompactParity(t, "n=2", pair, 2)
	cut := sorts.InsertionCutoff
	for _, length := range []int{cut - 1, cut, cut + 1} {
		for _, n := range []int{40, 300, 70000} {
			checkCompactParity(t, fmt.Sprintf("segment=%d n=%d", length, n), segmentOf(rng, n, length), n)
		}
	}
	for _, n := range []int{1 << 8, 1<<8 + 1, 1 << 12, 1<<12 + 1, 1 << 16, 1<<16 + 1} {
		checkCompactParity(t, fmt.Sprintf("n=%d", n), hubEdges(rng, n, 4000, 3), n)
	}
}

// TestCompactParityHubs is the randomized property test of the wide
// vertex space: n up to 4096, so V takes two digits, with a few hubs
// whose segments take the LSD path.
func TestCompactParityHubs(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 8))
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for it := 0; it < iters; it++ {
		n := 1 + rng.IntN(4096)
		checkCompactParity(t, "hubs", hubEdges(rng, n, rng.IntN(2000), 1+rng.IntN(8)), n)
	}
}

// FuzzCompactParity lets the fuzzer search for divergences between the
// two-level kernel and the comparator-based reference. mRaw below 512
// draws uniform edges over n <= 64; from 512 up its high bits select a
// vertex space of up to 4096 vertices whose U is drawn from a few hubs,
// so V spans two digits and hub segments take the LSD path.
func FuzzCompactParity(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint16(30))
	f.Add(uint64(77), uint8(1), uint16(0))
	f.Add(uint64(3), uint8(40), uint16(400))
	f.Add(uint64(9), uint8(255), uint16(0xffff))
	f.Add(uint64(12), uint8(16), uint16(0x2a7f))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, mRaw uint16) {
		n := 1 + int(nRaw)%64
		m := int(mRaw) % 512
		rng := rand.New(rand.NewPCG(seed, 0))
		if wide := int(mRaw >> 9); wide > 0 {
			n = 1 + int(nRaw)<<4 | wide&15
			checkCompactParity(t, "fuzz-hubs", hubEdges(rng, n, m, 1+wide>>4), n)
			return
		}
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
