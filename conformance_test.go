package pmsf_test

// The conformance matrix: every algorithm × every input family ×
// several worker counts, each result checked by the full oracle
// (structure, then sorted weights against an independent Kruskal). This is
// the repository's release gate; run with -short to skip the slow cells.

import (
	"fmt"
	"testing"

	"pmsf"
	"pmsf/internal/gen"
)

type familySpec struct {
	name string
	make func() *pmsf.Graph
}

func families() []familySpec {
	return []familySpec{
		{"random-4x", func() *pmsf.Graph { return pmsf.RandomGraph(1200, 4800, 1) }},
		{"random-6x", func() *pmsf.Graph { return pmsf.RandomGraph(1200, 7200, 2) }},
		{"random-10x", func() *pmsf.Graph { return pmsf.RandomGraph(1200, 12000, 3) }},
		{"random-sparse", func() *pmsf.Graph { return pmsf.RandomGraph(1500, 1600, 4) }},
		{"disconnected", func() *pmsf.Graph { return pmsf.RandomGraph(1500, 800, 5) }},
		{"mesh", func() *pmsf.Graph { return pmsf.MeshGraph(35, 35, 6) }},
		{"2D60", func() *pmsf.Graph { return pmsf.Mesh2D60Graph(35, 35, 7) }},
		{"3D40", func() *pmsf.Graph { return pmsf.Mesh3D40Graph(11, 8) }},
		{"geometric-k6", func() *pmsf.Graph { return pmsf.GeometricGraph(900, 6, 9) }},
		{"str0", func() *pmsf.Graph { return pmsf.Str0Graph(1024, 10) }},
		{"str1", func() *pmsf.Graph { return pmsf.Str1Graph(1000, 11) }},
		{"str2", func() *pmsf.Graph { return pmsf.Str2Graph(1000, 12) }},
		{"str3", func() *pmsf.Graph { return pmsf.Str3Graph(1000, 13) }},
		// Elementary adversarial shapes.
		{"star", func() *pmsf.Graph { return gen.Star(1500, 14) }},
		{"path", func() *pmsf.Graph { return gen.Path(1500, 15) }},
		{"cycle", func() *pmsf.Graph { return gen.Cycle(1500, 16) }},
		{"caterpillar", func() *pmsf.Graph { return gen.Caterpillar(150, 9, 17) }},
		{"bipartite", func() *pmsf.Graph { return gen.CompleteBipartite(40, 35, 18) }},
		{"binary-tree", func() *pmsf.Graph { return gen.Binary(1365, 19) }},
		{"parallel-gen", func() *pmsf.Graph { return pmsf.RandomGraphParallel(1200, 6000, 20, 4) }},
	}
}

func TestConformanceMatrix(t *testing.T) {
	workerCounts := []int{1, 4}
	if testing.Short() {
		workerCounts = []int{4}
	}
	for _, fam := range families() {
		g := fam.make()
		for _, algo := range pmsf.Algorithms() {
			for _, p := range workerCounts {
				if !algo.Parallel() && p != workerCounts[0] {
					continue // sequential algorithms ignore p
				}
				name := fmt.Sprintf("%s/%v/p=%d", fam.name, algo, p)
				t.Run(name, func(t *testing.T) {
					forest, _, err := pmsf.MinimumSpanningForest(g, algo, pmsf.Options{
						Workers: p, Seed: 99,
					})
					if err != nil {
						t.Fatal(err)
					}
					if err := pmsf.Verify(g, forest); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
