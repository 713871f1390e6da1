package pmsf_test

// Cross-algorithm integration tests: every implementation must agree on
// arbitrary inputs, including adversarial weight patterns, across worker
// counts. These are the repository's end-to-end safety net.

import (
	"math"
	"testing"
	"testing/quick"

	"pmsf"
	"pmsf/internal/rng"
)

// randomInstance decodes a quick-generated seed into a graph plus run
// parameters covering the full option space.
func randomInstance(seed uint64) (*pmsf.Graph, int) {
	r := rng.New(seed)
	n := 2 + r.Intn(400)
	maxM := n * (n - 1) / 2
	m := r.Intn(maxM + 1)
	g := pmsf.RandomGraph(n, m, r.Uint64())
	// Occasionally inject adversarial weights.
	switch r.Intn(4) {
	case 0: // heavy ties
		for i := range g.Edges {
			g.Edges[i].W = float64(i % 3)
		}
	case 1: // negative weights
		for i := range g.Edges {
			g.Edges[i].W -= 0.5
		}
	case 2: // huge dynamic range
		for i := range g.Edges {
			g.Edges[i].W = math.Exp(20 * (g.Edges[i].W - 0.5))
		}
	}
	workers := 1 + r.Intn(8)
	return g, workers
}

func TestAllAlgorithmsAgreeProperty(t *testing.T) {
	algos := pmsf.Algorithms()
	f := func(seed uint64) bool {
		g, workers := randomInstance(seed)
		var refWeight float64
		var refSize, refComps int
		for i, algo := range algos {
			forest, _, err := pmsf.MinimumSpanningForest(g, algo, pmsf.Options{
				Workers: workers, Seed: seed, BaseSize: 1 + int(seed%100),
			})
			if err != nil {
				return false
			}
			if i == 0 {
				refWeight, refSize, refComps = forest.Weight, forest.Size(), forest.Components
				continue
			}
			if forest.Size() != refSize || forest.Components != refComps {
				return false
			}
			d := forest.Weight - refWeight
			scale := math.Max(math.Abs(refWeight), 1)
			if d > 1e-9*scale || d < -1e-9*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The full oracle (structure, then sorted weights against Kruskal) on a
// sample of instances per algorithm.
func TestFullOracleSample(t *testing.T) {
	for s := uint64(0); s < 8; s++ {
		g, workers := randomInstance(s * 977)
		for _, algo := range pmsf.Algorithms() {
			forest, _, err := pmsf.MinimumSpanningForest(g, algo, pmsf.Options{Workers: workers, Seed: s})
			if err != nil {
				t.Fatalf("seed %d %v: %v", s, algo, err)
			}
			if err := pmsf.Verify(g, forest); err != nil {
				t.Fatalf("seed %d %v: %v", s, algo, err)
			}
		}
	}
}

// A larger end-to-end run, skipped in -short mode.
func TestLargeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := pmsf.RandomGraph(50_000, 300_000, 123)
	ref, _, err := pmsf.MinimumSpanningForest(g, pmsf.SeqKruskal, pmsf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range pmsf.ParallelAlgorithms() {
		forest, _, err := pmsf.MinimumSpanningForest(g, algo, pmsf.Options{Workers: 8, Seed: 7})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		d := forest.Weight - ref.Weight
		if d > 1e-6 || d < -1e-6 {
			t.Fatalf("%v: weight %f != %f", algo, forest.Weight, ref.Weight)
		}
		if forest.Size() != ref.Size() {
			t.Fatalf("%v: %d edges != %d", algo, forest.Size(), ref.Size())
		}
	}
}
