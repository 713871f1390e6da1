// Components: minimum spanning FORESTS on disconnected inputs — the
// paper's algorithms handle disconnected graphs natively, returning an
// MST per connected component. This example models outbreak clusters
// (the paper's bioterrorism motivation: tracking toxin spread through
// populations): contacts exist only within clusters, and the MSF yields
// one minimal "transmission tree" per cluster plus per-cluster cost
// statistics.
package main

import (
	"fmt"
	"log"
	"sort"

	"pmsf"
	"pmsf/internal/rng"
)

func main() {
	// Build a population of isolated contact clusters with random sizes;
	// intra-cluster contact graphs are random with average degree 5.
	r := rng.New(3)
	var edges []pmsf.Edge
	base := int32(0)
	clusters := 0
	for base < 40_000 {
		size := 50 + r.Intn(2000)
		m := size * 5 / 2
		sub := pmsf.RandomGraph(size, m, r.Uint64())
		for _, e := range sub.Edges {
			edges = append(edges, pmsf.Edge{U: base + e.U, V: base + e.V, W: e.W})
		}
		base += int32(size)
		clusters++
	}
	g := pmsf.NewGraph(int(base), edges)

	forest, stats, err := pmsf.MinimumSpanningForest(g, pmsf.MSTBC, pmsf.Options{
		Workers: 4,
		Trace:   pmsf.NewTrace(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("population: %d individuals, %d contacts, %d planted clusters\n",
		g.N, len(g.Edges), clusters)
	fmt.Printf("MSF: %d edges across %d components (isolated individuals: %d)\n",
		forest.Size(), forest.Components, forest.Components-clusters)

	// Per-component weights: group selected edges by component.
	comp := componentOf(g, forest)
	weight := map[int32]float64{}
	size := map[int32]int{}
	for _, id := range forest.EdgeIDs {
		e := g.Edges[id]
		weight[comp[e.U]] += e.W
	}
	for v := 0; v < g.N; v++ {
		size[comp[v]]++
	}
	type cl struct {
		size int
		w    float64
	}
	var all []cl
	for c, s := range size {
		all = append(all, cl{s, weight[c]})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].size > all[j].size })
	fmt.Println("\nlargest clusters (size, transmission-tree cost):")
	for i := 0; i < 5 && i < len(all); i++ {
		fmt.Printf("  #%d: %5d individuals, cost %.2f\n", i+1, all[i].size, all[i].w)
	}

	if len(stats.Rounds) > 0 {
		fmt.Printf("\nMST-BC ran %d parallel levels, grew %d trees at level 1\n",
			len(stats.Rounds), stats.Rounds[0].Arg("trees"))
	}
	if err := pmsf.Verify(g, forest); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified: one MST per component")
}

// componentOf labels each vertex with its component via union-find over
// the forest edges (the forest spans every component by construction).
func componentOf(g *pmsf.Graph, forest *pmsf.Forest) []int32 {
	parent := make([]int32, g.N)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, id := range forest.EdgeIDs {
		e := g.Edges[id]
		ru, rv := find(e.U), find(e.V)
		if ru != rv {
			parent[ru] = rv
		}
	}
	out := make([]int32, g.N)
	for v := range out {
		out[v] = find(int32(v))
	}
	return out
}
