package pmsf_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"pmsf"
	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/rng"
)

// The stress matrix: ~200 seeded graphs across random, geometric, mesh,
// structured and adversarial shapes (disconnected, self-loop-heavy,
// duplicate-edge, zero/negative-weight), each solved by every algorithm
// in Algorithms() — including the lock-free Bor-CAS engine — at
// several worker counts. Every run must agree with the others on
// forest weight and component count, and one result per graph is fully
// verified against the library's independent checker.

// stressCase is one input graph of the matrix.
type stressCase struct {
	name string
	g    *graph.EdgeList
}

// mutate applies an adversarial transformation to roughly every third
// graph: self-loop injection, edge duplication, or weight flattening to
// zero/negative values. The RNG is seeded per graph, so the matrix is
// reproducible.
func mutate(g *graph.EdgeList, kind int, seed uint64) (*graph.EdgeList, string) {
	out := g.Clone()
	r := rng.New(seed)
	switch kind {
	case 1: // self-loop heavy: one loop per ~4 vertices
		if out.N > 0 {
			for i := 0; i < out.N/4+1; i++ {
				v := int32(r.Intn(out.N))
				out.Edges = append(out.Edges, graph.Edge{U: v, V: v, W: r.Float64()})
			}
		}
		return out, "selfloops"
	case 2: // duplicate ~half the edges, some with identical weights
		for i := 0; i < len(g.Edges)/2; i++ {
			e := g.Edges[r.Intn(len(g.Edges))]
			if r.Intn(2) == 0 {
				e.W = r.Float64()
			}
			out.Edges = append(out.Edges, e)
		}
		return out, "dupes"
	case 3: // zero and negative weights
		for i := range out.Edges {
			switch r.Intn(3) {
			case 0:
				out.Edges[i].W = 0
			case 1:
				out.Edges[i].W = -r.Float64()
			}
		}
		return out, "zeroneg"
	}
	return out, "plain"
}

// stressCases builds the seeded graph matrix. count bounds the number of
// cases (the -short run uses a small fraction).
func stressCases(count int) []stressCase {
	var cases []stressCase
	add := func(name string, g *graph.EdgeList) {
		if len(cases) < count {
			cases = append(cases, stressCase{name, g})
		}
	}
	seed := uint64(1)
	next := func() uint64 { seed++; return seed * 0x9e3779b97f4a7c15 }

	// Degenerate shapes first: they catch boundary bugs cheapest.
	add("empty", &graph.EdgeList{N: 0})
	add("one-vertex", &graph.EdgeList{N: 1})
	add("isolated", &graph.EdgeList{N: 17})
	add("single-edge", &graph.EdgeList{N: 2, Edges: []graph.Edge{{U: 0, V: 1, W: 1}}})
	add("self-loop-only", &graph.EdgeList{N: 3, Edges: []graph.Edge{{U: 1, V: 1, W: 1}}})
	add("tied-weights", gen.Reweight(gen.Random(40, 120, next()), gen.WeightsSmallInts, 7))

	// Seeded sweeps over the generator families with mutations.
	for round := 0; ; round++ {
		if len(cases) >= count {
			break
		}
		s := next()
		n := 20 + int(s%240)
		family := []struct {
			name string
			g    *graph.EdgeList
		}{
			{"random", gen.Random(n, 3*n, s)},
			{"random-sparse", gen.Random(n, n/2, s)}, // usually disconnected
			{"geometric", gen.Geometric(n, 4, s)},
			{"mesh", gen.Mesh2D(isqrt(n), isqrt(n)+1, s)},
			{"path", gen.Path(n, s)},
			{"star", gen.Star(n, s)},
			{"cycle", gen.Cycle(n, s)},
			{"bipartite", gen.CompleteBipartite(n/8+1, n/8+2, s)},
			{"str1", gen.Str1(n, s)},
			{"str2", gen.Str2(n, s)},
			{"caterpillar", gen.Caterpillar(n/4+1, 3, s)},
		}
		for i, f := range family {
			g, tag := mutate(f.g, (round+i)%4, s+uint64(i))
			add(fmt.Sprintf("%s-%s-n%d-r%d", f.name, tag, g.N, round), g)
		}
	}
	return cases
}

func isqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}

func TestStressAllAlgorithmsAgree(t *testing.T) {
	count := 200
	if testing.Short() {
		count = 40
	}
	workerSet := []int{1, 2, runtime.GOMAXPROCS(0)}
	cases := stressCases(count)
	if len(cases) < count {
		t.Fatalf("built %d cases, want %d", len(cases), count)
	}
	for i, tc := range cases {
		tc := tc
		verifySeed := uint64(i)
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			type result struct {
				algo    string
				weight  float64
				comps   int
				nEdges  int
				workers int
			}
			var ref *result
			check := func(algo pmsf.Algorithm, workers int) {
				f, _, err := pmsf.MinimumSpanningForest(tc.g, algo, pmsf.Options{
					Workers: workers, Seed: verifySeed + uint64(workers),
				})
				if err != nil {
					t.Fatalf("%v p=%d: %v", algo, workers, err)
				}
				got := &result{algo.String(), f.Weight, f.Components, len(f.EdgeIDs), workers}
				if ref == nil {
					ref = got
					// Full structural verification once per graph: the other
					// runs are checked for agreement against this one.
					if err := pmsf.Verify(tc.g, f); err != nil {
						t.Fatalf("%v p=%d: %v", algo, workers, err)
					}
					return
				}
				if got.comps != ref.comps || got.nEdges != ref.nEdges {
					t.Fatalf("%v p=%d: %d components / %d edges, want %d / %d (ref %s p=%d)",
						algo, workers, got.comps, got.nEdges, ref.comps, ref.nEdges, ref.algo, ref.workers)
				}
				if math.Abs(got.weight-ref.weight) > 1e-9*(1+math.Abs(ref.weight)) {
					t.Fatalf("%v p=%d: weight %v, want %v (ref %s p=%d)",
						algo, workers, got.weight, ref.weight, ref.algo, ref.workers)
				}
			}
			for _, algo := range pmsf.Algorithms() {
				if algo.Parallel() {
					for _, p := range workerSet {
						check(algo, p)
					}
				} else {
					check(algo, 1)
				}
			}
		})
	}
}
