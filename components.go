package pmsf

import (
	"fmt"

	"pmsf/internal/cc"
)

// ConnectedComponents computes the connected components of g with the
// same shared-memory machinery as the MSF algorithms (the paper's
// conclusion names connected components as the next target for these
// techniques). It returns dense component labels (labels[v] in
// [0, components)) and the component count. workers <= 0 means
// GOMAXPROCS.
//
// It runs the edge-parallel lock-free union-find (cc.UnionFind), which
// beats the Shiloach-Vishkin hook-and-jump cc.SV on sparse inputs.
// Labels are deterministic: components are numbered by their minimum
// vertex id's position.
func ConnectedComponents(g *Graph, workers int) (labels []int32, components int, err error) {
	if g == nil {
		return nil, 0, fmt.Errorf("pmsf: nil graph")
	}
	if err := g.Validate(); err != nil {
		return nil, 0, err
	}
	labels, components = cc.UnionFind(g, workers)
	return labels, components, nil
}
