package dense

import (
	"fmt"
	"testing"

	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/verify"
)

func TestDenseProducesMSF(t *testing.T) {
	inputs := map[string]*graph.EdgeList{
		"empty":        {N: 0},
		"single":       {N: 1},
		"isolated":     {N: 4},
		"one-edge":     {N: 2, Edges: []graph.Edge{{U: 0, V: 1, W: 1}}},
		"parallel":     {N: 2, Edges: []graph.Edge{{U: 0, V: 1, W: 3}, {U: 1, V: 0, W: 1}}},
		"self-loop":    {N: 2, Edges: []graph.Edge{{U: 0, V: 0, W: 1}, {U: 0, V: 1, W: 2}}},
		"random":       gen.Random(300, 2000, 1),
		"dense":        gen.Random(150, 150*149/2, 2), // complete graph
		"disconnected": gen.Random(400, 200, 3),
		"mesh":         gen.Mesh2D(17, 19, 4),
		"str0":         gen.Str0(128, 5),
	}
	for name, g := range inputs {
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				f := Run(g, Options{Workers: p})
				if err := verify.Minimum(g, f); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestDenseDuplicateWeights(t *testing.T) {
	g := gen.Random(200, 1500, 7)
	for i := range g.Edges {
		g.Edges[i].W = float64(i % 3)
	}
	f := Run(g, Options{})
	if err := verify.Forest(g, f); err != nil {
		t.Fatal(err)
	}
	ref := Run(g, Options{Workers: 1})
	if f.Weight != ref.Weight {
		t.Fatal("worker count changed the result")
	}
}

func TestDenseRejectsHugeGraphs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for n > MaxN")
		}
	}()
	Run(&graph.EdgeList{N: MaxN + 1}, Options{})
}

func TestCellLighter(t *testing.T) {
	a := cell{w: 1, id: 0}
	b := cell{w: 2, id: 1}
	none := cell{id: -1}
	if !a.lighter(b) || b.lighter(a) {
		t.Fatal("weight order wrong")
	}
	if !a.lighter(none) || none.lighter(a) {
		t.Fatal("missing-edge order wrong")
	}
	tie1, tie2 := cell{w: 1, id: 3}, cell{w: 1, id: 5}
	if !tie1.lighter(tie2) || tie2.lighter(tie1) {
		t.Fatal("tie-break wrong")
	}
}
