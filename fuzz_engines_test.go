package pmsf_test

// FuzzEngineParity decodes an arbitrary byte string into a small
// multigraph — with a weight alphabet biased toward duplicates, zeros,
// negatives and extremes — and asserts that every parallel engine,
// Bor-EL under both compaction kernels, agrees with SeqKruskal on forest
// weight, edge count and component count. Run continuously by the CI
// fuzz-smoke job.

import (
	"math"
	"testing"

	"pmsf"
)

// decodeFuzzGraph maps data to a graph: byte 0 picks the vertex count in
// [1, 64], then each 4-byte record is one edge (u, v, weight selector,
// weight operand). Self-loops and parallel edges come out of the decoder
// naturally; the record count is capped to keep single cases fast.
func decodeFuzzGraph(data []byte) *pmsf.Graph {
	if len(data) == 0 {
		return nil
	}
	n := 1 + int(data[0])%64
	rest := data[1:]
	const maxEdges = 2048
	if len(rest) > 4*maxEdges {
		rest = rest[:4*maxEdges]
	}
	var edges []pmsf.Edge
	for i := 0; i+4 <= len(rest); i += 4 {
		edges = append(edges, decodeFuzzEdge(n, rest[i:i+4]))
	}
	return pmsf.NewGraph(n, edges)
}

// decodeFuzzEdge maps one 4-byte record (u, v, weight selector, weight
// operand) to an edge of an n-vertex graph.
func decodeFuzzEdge(n int, rec []byte) pmsf.Edge {
	op := float64(rec[3])
	var w float64
	switch rec[2] % 8 {
	case 0:
		w = 0
	case 1:
		w = 1
	case 2:
		w = -1
	case 3:
		w = op // small ints: heavy duplicates
	case 4:
		w = -op
	case 5:
		w = op + op/256 // fractional near-ties
	case 6:
		w = 1e9 * op
	default:
		w = -1e9 * op
	}
	return pmsf.Edge{U: int32(int(rec[0]) % n), V: int32(int(rec[1]) % n), W: w}
}

func FuzzEngineParity(f *testing.F) {
	// Seed corpus: empty graph, a triangle with duplicate weights, a
	// star with all-equal weights, negatives, extremes, parallel edges.
	f.Add([]byte{4})
	f.Add([]byte{2, 0, 1, 3, 5, 1, 2, 3, 5, 0, 2, 3, 5})
	f.Add([]byte{7, 0, 1, 1, 0, 0, 2, 1, 0, 0, 3, 1, 0, 0, 4, 1, 0})
	f.Add([]byte{10, 1, 2, 2, 9, 2, 3, 4, 9, 3, 4, 7, 9, 4, 5, 6, 9})
	f.Add([]byte{5, 0, 1, 3, 200, 0, 1, 3, 200, 1, 1, 0, 0, 2, 3, 6, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeFuzzGraph(data)
		if g == nil {
			t.Skip()
		}
		ref, _, err := pmsf.MinimumSpanningForest(g, pmsf.SeqKruskal, pmsf.Options{})
		if err != nil {
			t.Skip() // decoder produced an invalid graph; not interesting
		}
		for _, cfg := range engineConfigs(pmsf.ParallelAlgorithms()) {
			f2, _, err := pmsf.MinimumSpanningForest(g, cfg.algo, pmsf.Options{Workers: 4, SortEngine: cfg.sort})
			if err != nil {
				t.Fatalf("%s: %v", cfg.name, err)
			}
			if f2.Size() != ref.Size() || f2.Components != ref.Components {
				t.Fatalf("%s: got %d edges / %d components, Kruskal %d / %d",
					cfg.name, f2.Size(), f2.Components, ref.Size(), ref.Components)
			}
			if d := math.Abs(f2.Weight - ref.Weight); d > 1e-9*(1+math.Abs(ref.Weight)) {
				t.Fatalf("%s: weight %v, Kruskal %v (Δ %g)", cfg.name, f2.Weight, ref.Weight, d)
			}
		}
	})
}
