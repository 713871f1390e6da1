package mstbc

import (
	"fmt"
	"runtime"
	"testing"

	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/rng"
	"pmsf/internal/seq"
	"pmsf/internal/verify"
)

// messy returns two disjoint copies of g reweighted to small integers
// (heavy ties), with self-loops, parallel edges and a few isolated
// vertices added: everything the finish's id list and vertex map must
// see through.
func messy(g *graph.EdgeList, seed uint64) *graph.EdgeList {
	g = gen.Reweight(g, gen.WeightsSmallInts, seed)
	r := rng.New(seed)
	out := &graph.EdgeList{N: 2*g.N + 5}
	for c := int32(0); c < 2; c++ {
		off := c * int32(g.N)
		for i, e := range g.Edges {
			e.U, e.V = e.U+off, e.V+off
			out.Edges = append(out.Edges, e)
			if i%7 == 0 {
				out.Edges = append(out.Edges, graph.Edge{U: e.V, V: e.U, W: float64(r.Intn(8))})
			}
			if i%11 == 0 {
				out.Edges = append(out.Edges, graph.Edge{U: e.U, V: e.U, W: float64(r.Intn(8))})
			}
		}
	}
	return out
}

// checkAgainstKruskal checks f against sequential Kruskal: a minimum
// forest the verifier accepts, with Kruskal's component count.
func checkAgainstKruskal(t *testing.T, g *graph.EdgeList, f *graph.Forest) {
	t.Helper()
	if err := verify.Minimum(g, f); err != nil {
		t.Fatal(err)
	}
	if ref := seq.Kruskal(g); f.Components != ref.Components {
		t.Fatalf("%d components, Kruskal has %d", f.Components, ref.Components)
	}
}

// The finish, reached by a dense hand-off, by the n_b base case, or not
// at all, must return Kruskal's forest weight and component count on
// tied, looped, parallel and disconnected inputs.
func TestFinishDifferential(t *testing.T) {
	const n = 1500
	families := map[string]*graph.EdgeList{
		"star":  gen.Star(n, 1),
		"mesh":  gen.Mesh2D(40, 40, 2),
		"str0":  gen.Str0(1024, 3),
		"rand2": gen.Random(n, 2*n, 4),
	}
	for _, c := range []int{4, 10, 20} {
		families[fmt.Sprintf("rand%d", c)] = gen.Random(n, c*n, uint64(c))
	}
	for name, g := range families {
		g := messy(g, 7)
		for _, p := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				for seed := uint64(0); seed < 3; seed++ {
					checkAgainstKruskal(t, g, Run(g, Options{Workers: p, Seed: seed}))
				}
			})
		}
	}
}

// The hand-off rule, pinned both ways: a dense random graph hands a
// level's labels to the finish once the workers' trees meet, and a tree
// (str0, one live edge per supervertex at most) never does.
func TestHandOffRule(t *testing.T) {
	dense := gen.Random(10000, 200000, 1)
	tree := gen.Str0(4096, 2)
	for _, p := range []int{2, 8} {
		handed := false
		for seed := uint64(0); seed < 8 && !handed; seed++ {
			f, s := traced(dense, Options{Workers: p, Seed: seed})
			checkAgainstKruskal(t, dense, f)
			if s.Args["finish.dense"] == 1 {
				handed = true
				if s.Args["finish.m"] < denseFactor*s.Args["finish.n"] {
					t.Fatalf("p=%d: dense finish with m=%d < %d·n=%d", p, s.Args["finish.m"], denseFactor, s.Args["finish.n"])
				}
			}
		}
		// With one OS thread the first worker may grow every tree before
		// the others start, which leaves no live edge.
		if !handed && runtime.GOMAXPROCS(0) > 1 {
			t.Fatalf("p=%d: G(10000, 200000) never handed off in 8 seeds", p)
		}
		for seed := uint64(0); seed < 8; seed++ {
			f, s := traced(tree, Options{Workers: p, BaseSize: 8, Seed: seed})
			checkAgainstKruskal(t, tree, f)
			if s.Args["finish.dense"] != 0 {
				t.Fatalf("p=%d seed %d: str0 handed off dense (finish n=%d m=%d)", p, seed, s.Args["finish.n"], s.Args["finish.m"])
			}
		}
	}
}

// A finish after two or more contracted levels reads the input through
// the vertex map composed across them. On these graphs at p = 4 about
// four runs in five contract twice before n_b.
func TestFinishComposedMap(t *testing.T) {
	graphs := map[string]*graph.EdgeList{
		"binary":    messy(gen.Binary(40000, 1), 2),
		"geometric": messy(gen.Geometric(20000, 3, 3), 4),
		"str3":      gen.Str3(32000, 5),
	}
	for name, g := range graphs {
		deep := false
		for seed := uint64(0); seed < 16 && !deep; seed++ {
			f, s := traced(g, Options{Workers: 4, BaseSize: 1024, Seed: seed})
			checkAgainstKruskal(t, g, f)
			deep = s.Counts["level"] >= 2 && s.Counts["finish"] == 1
		}
		if !deep && runtime.GOMAXPROCS(0) > 1 {
			t.Fatalf("%s: no seed of 16 finished after two or more levels", name)
		}
	}
}

// Every level's Prim growth scans O(n + m) arcs, hubs or not: each
// vertex's arcs are scanned only by the tree that colored it, at most
// twice. A star at p = 1 used to rescan the centre once per leaf.
func TestArcScansLinear(t *testing.T) {
	graphs := map[string]*graph.EdgeList{
		"star":        gen.Star(20000, 1),
		"caterpillar": gen.Caterpillar(100, 200, 2),
		"star+random": starPlusRandom(20000, 3),
	}
	for name, g := range graphs {
		for _, p := range []int{1, 2, 8} {
			tr := obs.NewCollector()
			f := Run(g, Options{Workers: p, BaseSize: 8, Seed: 4, Trace: tr})
			checkAgainstKruskal(t, g, f)
			levels := map[int64]obs.SpanRecord{}
			spans := tr.Spans()
			for _, r := range spans {
				if r.Name == "level" {
					levels[r.ID] = r
				}
			}
			grows := 0
			for _, r := range spans {
				if r.Name != "grow" {
					continue
				}
				grows++
				lv := levels[r.Parent]
				n, _ := lv.Arg("n")
				m, _ := lv.Arg("m")
				scans, ok := r.Arg("arc_scans")
				if !ok || scans > 4*(n+m) {
					t.Fatalf("%s p=%d: grow scanned %d arcs (recorded %v) on a level of n=%d, m=%d; bound 4·(n+m)", name, p, scans, ok, n, m)
				}
			}
			if grows == 0 {
				t.Fatalf("%s p=%d: no level ran", name, p)
			}
		}
	}
}

// starPlusRandom overlays a star on all n vertices with a random G(n, 2n).
func starPlusRandom(n int, seed uint64) *graph.EdgeList {
	g := gen.Star(n, seed)
	g.Edges = append(g.Edges, gen.Random(n, 2*n, seed+1).Edges...)
	return g
}
