package pmsf_test

// Godoc examples for the main public entry points.

import (
	"fmt"

	"pmsf"
)

func ExampleConnectedComponents() {
	// Two triangles and an isolated vertex: three components.
	g := pmsf.NewGraph(7, []pmsf.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 3, V: 5, W: 1},
	})
	labels, k, err := pmsf.ConnectedComponents(g, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println(k, labels)
	// Output: 3 [0 0 0 1 1 1 2]
}

func ExampleOptions_trace() {
	g := pmsf.RandomGraph(10_000, 60_000, 7)
	_, stats, err := pmsf.MinimumSpanningForest(g, pmsf.BorFAL, pmsf.Options{
		Trace: pmsf.NewTrace(),
	})
	if err != nil {
		panic(err)
	}
	// Borůvka halves the supervertex count (at least) every iteration.
	first, second := stats.Rounds[0].Arg("n"), stats.Rounds[1].Arg("n")
	fmt.Println(first == int64(g.N), second <= first/2)
	// Output: true true
}

func ExampleVerify() {
	g := pmsf.RandomGraph(1_000, 5_000, 3)
	forest, _, err := pmsf.MinimumSpanningForest(g, pmsf.MSTBC, pmsf.Options{Workers: 4})
	if err != nil {
		panic(err)
	}
	fmt.Println(pmsf.Verify(g, forest))
	// Output: <nil>
}

func ExampleParseAlgorithm() {
	algo, err := pmsf.ParseAlgorithm("bor-fal")
	if err != nil {
		panic(err)
	}
	fmt.Println(algo, algo.Parallel())
	// Output: Bor-FAL true
}

func ExampleForest_Edges() {
	g := pmsf.NewGraph(3, []pmsf.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 3},
	})
	forest, _, err := pmsf.MinimumSpanningForest(g, pmsf.SeqKruskal, pmsf.Options{})
	if err != nil {
		panic(err)
	}
	for _, e := range forest.Edges(g) {
		fmt.Printf("%d-%d (%.0f)\n", e.U, e.V, e.W)
	}
	// Output:
	// 0-1 (1)
	// 1-2 (2)
}
