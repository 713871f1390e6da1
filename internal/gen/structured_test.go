package gen

import (
	"testing"

	"pmsf/internal/boruvka"
	"pmsf/internal/graph"
	"pmsf/internal/obs"
)

// iterationSizes runs Bor-AL on g under a trace and returns the
// supervertex count at the start of each iteration.
func iterationSizes(g *graph.EdgeList) []int {
	tr := obs.NewCollector()
	boruvka.AL(g, boruvka.Options{Trace: tr})
	var ns []int
	for _, it := range tr.Summarize(nil).Rounds {
		ns = append(ns, int(it.Arg("n")))
	}
	return ns
}

// The structured graphs are spanning trees by construction.
func TestStructuredAreTrees(t *testing.T) {
	makers := map[string]func(int, uint64) *graph.EdgeList{
		"str0": Str0, "str1": Str1, "str2": Str2, "str3": Str3,
	}
	for name, mk := range makers {
		for _, n := range []int{2, 3, 10, 100, 1000} {
			g := mk(n, 1)
			if err := g.Validate(); err != nil {
				t.Fatalf("%s(%d): %v", name, n, err)
			}
			if len(g.Edges) != g.N-1 {
				t.Fatalf("%s(%d): %d edges for %d vertices (not a tree)",
					name, n, len(g.Edges), g.N)
			}
			if c := graph.ComponentCount(g); c != 1 {
				t.Fatalf("%s(%d): %d components", name, n, c)
			}
		}
	}
}

// Str0 rounds n to the next power of two.
func TestStr0RoundsToPow2(t *testing.T) {
	g := Str0(1000, 1)
	if g.N != 1024 {
		t.Fatalf("n = %d, want 1024", g.N)
	}
}

// The defining property of str0: parallel Borůvka halves the vertex count
// EXACTLY each iteration, needing the full log2(n) iterations (the
// paper's worst case for the number of iterations).
func TestStr0ForcesLog2nIterations(t *testing.T) {
	const n = 256
	g := Str0(n, 3)
	ns := iterationSizes(g)
	if len(ns) != 8 {
		t.Fatalf("str0(256) took %d iterations, want 8", len(ns))
	}
	for i, got := range ns {
		if want := n >> i; got != want {
			t.Fatalf("iteration %d started with %d supervertices, want exactly %d",
				i+1, got, want)
		}
	}
}

// str1 contracts chains of ~sqrt(n): the supervertex count should
// collapse much faster than halving (n -> ~sqrt(n) per iteration).
func TestStr1CollapsesFast(t *testing.T) {
	g := Str1(10_000, 4)
	ns := iterationSizes(g)
	if len(ns) == 0 {
		t.Fatal("no iterations")
	}
	if len(ns) > 6 {
		t.Fatalf("str1(10000) took %d iterations; the sqrt-chain structure should finish in ~4", len(ns))
	}
	// The second iteration must start with roughly sqrt(n) supervertices.
	if len(ns) > 1 {
		n2 := ns[1]
		if n2 > 400 {
			t.Fatalf("after one iteration %d supervertices remain; want ~sqrt(10000)", n2)
		}
	}
}

// str2's recurrence is n -> n/4 + 1.
func TestStr2Recurrence(t *testing.T) {
	g := Str2(4096, 5)
	ns := iterationSizes(g)
	if len(ns) < 2 {
		t.Fatal("too few iterations")
	}
	n2 := ns[1]
	if n2 < 4096/4 || n2 > 4096/4+64 {
		t.Fatalf("after one iteration %d supervertices, want ~%d", n2, 4096/4+1)
	}
}

// str3's complete binary trees contract in one iteration each, so the
// count drops to ~sqrt(n) per iteration like str1.
func TestStr3CollapsesFast(t *testing.T) {
	g := Str3(10_000, 6)
	if ns := iterationSizes(g); len(ns) > 6 {
		t.Fatalf("str3(10000) took %d iterations", len(ns))
	}
}

func TestStructuredDeterministic(t *testing.T) {
	a, b := Str2(500, 9), Str2(500, 9)
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("str2 not deterministic")
		}
	}
}

// Weight levels must be disjoint: every level-L edge lighter than every
// level-(L+1) edge. Str0 encodes level in the integer part.
func TestStr0WeightLevels(t *testing.T) {
	g := Str0(64, 7)
	for _, e := range g.Edges {
		frac := e.W - float64(int(e.W))
		if frac < 0 || frac >= 0.5 {
			t.Fatalf("weight %g outside its level band", e.W)
		}
	}
}
