package cashook

// FuzzBorCASFilterParity decodes an arbitrary byte string into a small
// multigraph, a worker count and a tiny base-case cutoff, so that even
// a few dozen edges split, filter and recurse, and checks the forest
// against seq.Kruskal. Run by the CI fuzz-smoke job.

import (
	"math"
	"testing"

	"pmsf/internal/graph"
	"pmsf/internal/seq"
	"pmsf/internal/verify"
)

// decodeFilterCase maps data to a graph, a worker count in [1, 4] and a
// cutoff in {1, 2, 4, 8, 16}: byte 0 picks the vertex count in [1, 64],
// byte 1 the workers and the cutoff, then each 4-byte record is one
// edge (u, v, weight selector, weight operand) over the weight
// alphabet of the root package's engine fuzzer — duplicates, zeros,
// negatives and extremes.
func decodeFilterCase(data []byte) (g *graph.EdgeList, workers, cutoff int) {
	if len(data) < 2 {
		return nil, 0, 0
	}
	n := 1 + int(data[0])%64
	workers = 1 + int(data[1])%4
	cutoff = 1 << (int(data[1]/4) % 5)
	rest := data[2:]
	const maxEdges = 2048
	if len(rest) > 4*maxEdges {
		rest = rest[:4*maxEdges]
	}
	g = &graph.EdgeList{N: n}
	for i := 0; i+4 <= len(rest); i += 4 {
		rec := rest[i : i+4]
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
		g.Edges = append(g.Edges, graph.Edge{U: int32(int(rec[0]) % n), V: int32(int(rec[1]) % n), W: w})
	}
	return g, workers, cutoff
}

func FuzzBorCASFilterParity(f *testing.F) {
	// Seed corpus: empty graph, a triangle with duplicate weights, a
	// star with all-equal weights, negatives, extremes, parallel edges.
	f.Add([]byte{4, 0})
	f.Add([]byte{2, 1, 0, 1, 3, 5, 1, 2, 3, 5, 0, 2, 3, 5})
	f.Add([]byte{7, 2, 0, 1, 1, 0, 0, 2, 1, 0, 0, 3, 1, 0, 0, 4, 1, 0})
	f.Add([]byte{10, 3, 1, 2, 2, 9, 2, 3, 4, 9, 3, 4, 7, 9, 4, 5, 6, 9})
	f.Add([]byte{5, 7, 0, 1, 3, 200, 0, 1, 3, 200, 1, 1, 0, 0, 2, 3, 6, 255})
	f.Add([]byte{9, 13, 0, 1, 5, 1, 1, 2, 5, 2, 2, 3, 5, 3, 3, 0, 5, 4, 0, 2, 5, 5, 1, 3, 5, 6, 4, 5, 5, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, workers, cutoff := decodeFilterCase(data)
		if g == nil {
			t.Skip()
		}
		got := solve(g, Options{Workers: workers, Seed: uint64(len(data))}, cutoff)
		ref := seq.Kruskal(g)
		if got.Size() != ref.Size() || got.Components != ref.Components {
			t.Fatalf("p=%d cutoff=%d: got %d edges / %d components, Kruskal %d / %d",
				workers, cutoff, got.Size(), got.Components, ref.Size(), ref.Components)
		}
		if d := math.Abs(got.Weight - ref.Weight); d > 1e-9*(1+math.Abs(ref.Weight)) {
			t.Fatalf("p=%d cutoff=%d: weight %v, Kruskal %v (Δ %g)", workers, cutoff, got.Weight, ref.Weight, d)
		}
		if !sameWeights(g, got, ref) {
			t.Fatalf("p=%d cutoff=%d: sorted edge weights differ from Kruskal's", workers, cutoff)
		}
		if err := verify.Forest(g, got); err != nil {
			t.Fatalf("p=%d cutoff=%d: %v", workers, cutoff, err)
		}
	})
}
