package mstbc

// Long-horizon randomized validation of the concurrent growth phase:
// many graphs × seeds × worker counts, checked against Kruskal weight.

import (
	"testing"
	"testing/quick"

	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/rng"
	"pmsf/internal/seq"
)

func TestRunAgreesWithKruskalProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(400)
		m := r.Intn(4 * n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := gen.Random(n, m, r.Uint64())
		ref := seq.Kruskal(g)
		got := Run(g, Options{
			Workers:   1 + r.Intn(8),
			BaseSize:  1 + r.Intn(n),
			NoPermute: r.Bool(),
			Seed:      seed,
		})
		d := got.Weight - ref.Weight
		return got.Components == ref.Components &&
			len(got.EdgeIDs) == len(ref.EdgeIDs) &&
			d < 1e-9 && d > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Structured inputs under many seeds: the paper's hard cases must never
// trip the hybrid's claiming, stealing or contraction.
func TestRunOnStructuredManySeeds(t *testing.T) {
	makers := map[string]func(uint64) *graph.EdgeList{
		"str0":  func(s uint64) *graph.EdgeList { return gen.Str0(512, s) },
		"str1":  func(s uint64) *graph.EdgeList { return gen.Str1(500, s) },
		"str3":  func(s uint64) *graph.EdgeList { return gen.Str3(500, s) },
		"cycle": func(s uint64) *graph.EdgeList { return gen.Cycle(500, s) },
		"star":  func(s uint64) *graph.EdgeList { return gen.Star(500, s) },
	}
	for name, mk := range makers {
		for seed := uint64(0); seed < 6; seed++ {
			g := mk(seed)
			ref := seq.Kruskal(g)
			got := Run(g, Options{Workers: 7, BaseSize: 16, Seed: seed})
			d := got.Weight - ref.Weight
			if d > 1e-9 || d < -1e-9 || got.Components != ref.Components {
				t.Fatalf("%s seed %d: weight %g vs %g", name, seed, got.Weight, ref.Weight)
			}
		}
	}
}
