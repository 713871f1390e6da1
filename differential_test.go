package pmsf_test

// The cross-engine differential matrix: every algorithm is checked
// against SeqKruskal — identical forest weight, edge count and component
// count — over inputs chosen to break tie handling and contraction:
// duplicate weights, all-equal weights, negative weights, cliques,
// disconnected shards, self-loops and parallel edges. Conformance checks
// each engine against the oracle; this file checks the engines against
// each other through the common reference, which is what pins the
// equal-weight matroid-exchange guarantees of Bor-CAS.

import (
	"fmt"
	"math"
	"testing"

	"pmsf"
	"pmsf/internal/gen"
	"pmsf/internal/rng"
)

// reweightConst sets every edge weight to w.
func reweightConst(g *pmsf.Graph, w float64) *pmsf.Graph {
	out := g.Clone()
	for i := range out.Edges {
		out.Edges[i].W = w
	}
	return out
}

// reweightSigned redraws weights uniformly from (-1, 1).
func reweightSigned(g *pmsf.Graph, seed uint64) *pmsf.Graph {
	r := rng.New(seed)
	out := g.Clone()
	for i := range out.Edges {
		out.Edges[i].W = 2*r.Float64() - 1
	}
	return out
}

// clique returns K_n with small-integer weights (dense ties).
func clique(n int, seed uint64) *pmsf.Graph {
	r := rng.New(seed)
	var edges []pmsf.Edge
	for u := int32(0); u < int32(n); u++ {
		for v := u + 1; v < int32(n); v++ {
			edges = append(edges, pmsf.Edge{U: u, V: v, W: float64(r.Intn(5))})
		}
	}
	return pmsf.NewGraph(n, edges)
}

// shards returns k disjoint random blobs plus a tail of isolated
// vertices: the disconnected multi-component case.
func shards(k, n, m int, seed uint64) *pmsf.Graph {
	var edges []pmsf.Edge
	for s := 0; s < k; s++ {
		blob := gen.Random(n, m, seed+uint64(s))
		off := int32(s * n)
		for _, e := range blob.Edges {
			edges = append(edges, pmsf.Edge{U: e.U + off, V: e.V + off, W: e.W})
		}
	}
	return pmsf.NewGraph(k*n+17, edges)
}

// decorated adds a self-loop per tenth vertex and a heavier parallel
// twin per third edge.
func decorated(g *pmsf.Graph, seed uint64) *pmsf.Graph {
	r := rng.New(seed)
	out := g.Clone()
	for v := int32(0); v < int32(out.N); v += 10 {
		out.Edges = append(out.Edges, pmsf.Edge{U: v, V: v, W: r.Float64()})
	}
	for i := 0; i < len(g.Edges); i += 3 {
		e := g.Edges[i]
		out.Edges = append(out.Edges, pmsf.Edge{U: e.U, V: e.V, W: e.W + r.Float64()})
	}
	return out
}

func adversarialFamilies() []familySpec {
	return []familySpec{
		{"dup-weights", func() *pmsf.Graph {
			return gen.Reweight(gen.Random(900, 5400, 30), gen.WeightsSmallInts, 31)
		}},
		{"all-equal", func() *pmsf.Graph {
			return reweightConst(gen.Random(900, 4500, 32), 2.5)
		}},
		{"negative", func() *pmsf.Graph {
			return reweightSigned(gen.Random(900, 4500, 33), 34)
		}},
		{"all-negative", func() *pmsf.Graph {
			return reweightConst(gen.Random(700, 3500, 35), -1)
		}},
		{"structured", func() *pmsf.Graph {
			return gen.Reweight(gen.Random(900, 5400, 36), gen.WeightsStructured, 37)
		}},
		{"clique", func() *pmsf.Graph { return clique(45, 38) }},
		{"shards", func() *pmsf.Graph { return shards(6, 200, 700, 39) }},
		{"decorated", func() *pmsf.Graph {
			return decorated(gen.Random(800, 3200, 40), 41)
		}},
		{"decorated-ties", func() *pmsf.Graph {
			return decorated(gen.Reweight(gen.Random(800, 3200, 42), gen.WeightsSmallInts, 43), 44)
		}},
		{"star-ties", func() *pmsf.Graph {
			return gen.Reweight(gen.Star(1200, 45), gen.WeightsSmallInts, 46)
		}},
		{"path-ties", func() *pmsf.Graph {
			return gen.Reweight(gen.Path(1200, 47), gen.WeightsSmallInts, 48)
		}},
	}
}

// engineConfig is one engine under test: an algorithm and, for Bor-EL,
// its compaction kernel.
type engineConfig struct {
	name string
	algo pmsf.Algorithm
	sort pmsf.SortEngine
}

// engineConfigs runs each algorithm under its default options, and
// Bor-EL once more under the sample-sort kernel.
func engineConfigs(algos []pmsf.Algorithm) []engineConfig {
	var out []engineConfig
	for _, a := range algos {
		out = append(out, engineConfig{a.String(), a, pmsf.SortParallelRadix})
		if a == pmsf.BorEL {
			out = append(out, engineConfig{a.String() + "/" + pmsf.SortSampleSort.String(), a, pmsf.SortSampleSort})
		}
	}
	return out
}

func TestCrossEngineDifferential(t *testing.T) {
	workerCounts := []int{1, 2, 8}
	if testing.Short() {
		workerCounts = []int{4}
	}
	for _, fam := range adversarialFamilies() {
		g := fam.make()
		ref, _, err := pmsf.MinimumSpanningForest(g, pmsf.SeqKruskal, pmsf.Options{})
		if err != nil {
			t.Fatalf("%s: reference: %v", fam.name, err)
		}
		for _, cfg := range engineConfigs(pmsf.Algorithms()) {
			if cfg.algo == pmsf.SeqKruskal {
				continue
			}
			for _, p := range workerCounts {
				if !cfg.algo.Parallel() && p != workerCounts[0] {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/p=%d", fam.name, cfg.name, p), func(t *testing.T) {
					f, _, err := pmsf.MinimumSpanningForest(g, cfg.algo, pmsf.Options{
						Workers: p, Seed: uint64(p) + 7, SortEngine: cfg.sort,
					})
					if err != nil {
						t.Fatal(err)
					}
					if f.Size() != ref.Size() || f.Components != ref.Components {
						t.Fatalf("got %d edges / %d components, Kruskal %d / %d",
							f.Size(), f.Components, ref.Size(), ref.Components)
					}
					if d := math.Abs(f.Weight - ref.Weight); d > 1e-9*(1+math.Abs(ref.Weight)) {
						t.Fatalf("weight %v, Kruskal %v (Δ %g)", f.Weight, ref.Weight, d)
					}
					if err := pmsf.Verify(g, f); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
