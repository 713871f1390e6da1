package mstbc

import (
	"fmt"
	"testing"

	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/verify"
)

func smokeGraphs() map[string]*graph.EdgeList {
	return map[string]*graph.EdgeList{
		"empty":        {N: 0},
		"single":       {N: 1},
		"two-isolated": {N: 2},
		"one-edge":     {N: 2, Edges: []graph.Edge{{U: 0, V: 1, W: 0.5}}},
		"triangle": {N: 3, Edges: []graph.Edge{
			{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 3},
		}},
		"parallel-edges": {N: 2, Edges: []graph.Edge{
			{U: 0, V: 1, W: 3}, {U: 0, V: 1, W: 1}, {U: 1, V: 0, W: 2},
		}},
		"random-small":  gen.Random(64, 128, 1),
		"random-mid":    gen.Random(1000, 5000, 2),
		"random-big":    gen.Random(5000, 20000, 21),
		"random-sparse": gen.Random(2000, 2200, 3),
		"disconnected":  gen.Random(500, 300, 4),
		"mesh":          gen.Mesh2D(24, 24, 5),
		"mesh2d60":      gen.Mesh2D60(24, 24, 6),
		"mesh3d40":      gen.Mesh3D40(9, 7),
		"geometric":     gen.Geometric(400, 6, 8),
		"str0":          gen.Str0(1024, 9),
		"str1":          gen.Str1(1000, 10),
		"str2":          gen.Str2(1000, 11),
		"str3":          gen.Str3(1000, 12),
	}
}

func TestMSTBCProducesMSF(t *testing.T) {
	for name, g := range smokeGraphs() {
		for _, p := range []int{1, 2, 4, 7} {
			for _, nb := range []int{1, 64, 1 << 20} {
				t.Run(fmt.Sprintf("%s/p=%d/nb=%d", name, p, nb), func(t *testing.T) {
					f := Run(g, Options{Workers: p, BaseSize: nb, Seed: 42})
					if err := verify.Full(g, f); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestMSTBCRaces hammers the concurrent growth phase with many repetitions
// and workers on one graph; run under -race this exercises the CAS
// claiming, unconditional heap insertion, and work stealing paths.
func TestMSTBCRaces(t *testing.T) {
	g := gen.Random(800, 3000, 99)
	for rep := 0; rep < 30; rep++ {
		f := Run(g, Options{Workers: 8, BaseSize: 16, Seed: uint64(rep)})
		if err := verify.Full(g, f); err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
	}
}
