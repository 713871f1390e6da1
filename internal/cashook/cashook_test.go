package cashook

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/par"
	"pmsf/internal/rng"
	"pmsf/internal/seq"
	"pmsf/internal/verify"
)

// constWeights returns a copy of g with every edge at weight w — the
// single-bucket extreme for the bucket loop.
func constWeights(g *graph.EdgeList, w float64) *graph.EdgeList {
	out := g.Clone()
	for i := range out.Edges {
		out.Edges[i].W = w
	}
	return out
}

// traced runs Bor-CAS on g under a fresh trace and returns the forest
// and the run's span summary.
func traced(g *graph.EdgeList, opt Options) (*graph.Forest, *obs.Summary) {
	opt.Trace = obs.NewCollector()
	f := Run(g, opt)
	return f, opt.Trace.Summarize(nil)
}

// parity checks a traced run against the sequential Kruskal reference:
// equal weight, equal component count, and full structural verification.
func parity(t *testing.T, name string, g *graph.EdgeList, opt Options) {
	t.Helper()
	f, s := traced(g, opt)
	ref := seq.Kruskal(g)
	if f.Components != ref.Components || f.Size() != ref.Size() {
		t.Fatalf("%s: got %d components / %d edges, Kruskal %d / %d",
			name, f.Components, f.Size(), ref.Components, ref.Size())
	}
	if math.Abs(f.Weight-ref.Weight) > 1e-9*(1+math.Abs(ref.Weight)) {
		t.Fatalf("%s: weight %v, Kruskal %v", name, f.Weight, ref.Weight)
	}
	if err := verify.Forest(g, f); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if s.Algorithm != "Bor-CAS" {
		t.Fatalf("summary algorithm %q", s.Algorithm)
	}
}

func TestKruskalParity(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.EdgeList
	}{
		{"empty", &graph.EdgeList{N: 0}},
		{"isolated", &graph.EdgeList{N: 9}},
		{"single", &graph.EdgeList{N: 2, Edges: []graph.Edge{{U: 0, V: 1, W: 3}}}},
		{"self-loops", &graph.EdgeList{N: 3, Edges: []graph.Edge{
			{U: 0, V: 0, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 2, W: 0}}}},
		{"random", gen.Random(500, 2500, 1)},
		{"random-sparse", gen.Random(600, 300, 2)},
		{"geometric", gen.Geometric(400, 5, 3)},
		{"star", gen.Star(800, 4)},
		{"path", gen.Path(800, 5)},
		{"tied", gen.Reweight(gen.Random(400, 2400, 6), gen.WeightsSmallInts, 7)},
		{"all-equal", constWeights(gen.Random(400, 2000, 8), 2.5)},
		{"negative", constWeights(gen.Random(300, 1200, 9), -1)},
		{"mesh", gen.Mesh2D(22, 22, 10)},
	}
	for _, tc := range cases {
		for _, p := range []int{1, 2, 8} {
			parity(t, tc.name, tc.g, Options{Workers: p, Seed: uint64(p)})
		}
	}
}

func TestTiedBucketsGoParallel(t *testing.T) {
	// Small-int weights pile every edge into 8 buckets, all far beyond
	// parCutoff — the parallel hook path must engage and stay correct.
	g := gen.Reweight(gen.Random(3000, 18000, 11), gen.WeightsSmallInts, 12)
	f, s := traced(g, Options{Workers: 4})
	if s.Args["hook.parallel_buckets"] == 0 {
		t.Fatalf("no bucket took the parallel path (buckets=%d max=%d)",
			s.Args["hook.buckets"], s.Args["hook.max_bucket"])
	}
	ref := seq.Kruskal(g)
	if math.Abs(f.Weight-ref.Weight) > 1e-9 {
		t.Fatalf("weight %v, Kruskal %v", f.Weight, ref.Weight)
	}
	if err := verify.Forest(g, f); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctWeightsBucketPerEdge(t *testing.T) {
	g := gen.Random(300, 900, 13) // uniform [0,1) weights: ties ~impossible
	_, s := traced(g, Options{Workers: 2})
	// Every edge is filtered or sorted, and each sorted edge is a bucket.
	sorted := s.Args["sort.elements"]
	if b := s.Args["hook.buckets"]; b != sorted {
		t.Fatalf("%d buckets for %d sorted distinct-weight edges", b, sorted)
	}
	if f := s.Args["filter.filtered"]; f+sorted != int64(len(g.Edges)) {
		t.Fatalf("filtered %d + sorted %d edges, want m = %d", f, sorted, len(g.Edges))
	}
	if mb := s.Args["hook.max_bucket"]; mb != 1 {
		t.Fatalf("max bucket %d, want 1", mb)
	}
}

func TestTraceSpans(t *testing.T) {
	c := obs.NewCollector()
	g := gen.Random(200, 800, 14)
	Run(g, Options{Workers: 2, Trace: c})
	names := map[string]bool{}
	for _, s := range c.Spans() {
		names[s.Name] = true
	}
	for _, want := range []string{"Bor-CAS", "sort", "hook", "collect"} {
		if !names[want] {
			t.Fatalf("missing span %q (got %v)", want, names)
		}
	}
}

// filterWeights are the parity table's weight assignments: every
// generator distribution, plus the degenerate and extreme keys the
// pivot and the radix key must handle.
func filterWeights(g *graph.EdgeList) map[string]*graph.EdgeList {
	out := map[string]*graph.EdgeList{"equal": constWeights(g, 2.5)}
	for _, d := range gen.WeightDists() {
		out[d.String()] = gen.Reweight(g, d, 21)
	}
	r := rng.New(22)
	pick := func(ws ...float64) *graph.EdgeList {
		h := g.Clone()
		for i := range h.Edges {
			h.Edges[i].W = ws[r.Intn(len(ws))]
		}
		return h
	}
	out["signed-zeros"] = pick(math.Copysign(0, -1), 0)
	out["extremes"] = pick(math.Inf(-1), -math.MaxFloat64, -1, math.Copysign(0, -1), 0, 1, math.MaxFloat64, math.Inf(1))
	return out
}

// distinctWeights reports whether no two edges of g share a weight.
func distinctWeights(g *graph.EdgeList) bool {
	seen := make(map[float64]bool, len(g.Edges))
	for _, e := range g.Edges {
		if seen[e.W] {
			return false
		}
		seen[e.W] = true
	}
	return true
}

// TestFilterParityTable drives the Filter-Kruskal recursion with tiny
// base-case cutoffs, so every graph splits and filters, and checks each
// run against Kruskal.
func TestFilterParityTable(t *testing.T) {
	families := []struct {
		name   string
		g      *graph.EdgeList
		cycles bool // has edges outside every spanning forest
	}{
		{"random", gen.Random(300, 1500, 23), true},
		{"mesh", gen.Mesh2D(20, 20, 24), true},
		{"str0", gen.Str0(256, 25), false},
		{"str1", gen.Str1(256, 26), false},
		{"str2", gen.Str2(256, 27), false},
		{"str3", gen.Str3(256, 28), false},
		{"star", gen.Star(400, 29), false},
		{"path", gen.Path(400, 30), false},
	}
	for _, fam := range families {
		for wname, g := range filterWeights(fam.g) {
			ref := seq.Kruskal(g)
			distinct := distinctWeights(g)
			for _, cutoff := range []int{1, 16, 256} {
				for _, p := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s/%s/cutoff=%d/p=%d", fam.name, wname, cutoff, p)
					opt := Options{Workers: p, Seed: uint64(cutoff + p), Trace: obs.NewCollector()}
					f := solve(g, opt, cutoff)
					s := opt.Trace.Summarize(nil)
					checkForest(t, name, g, f, ref, distinct)
					filtered := s.Args["filter.filtered"]
					switch {
					case fam.cycles && distinct && cutoff == 1:
						// Every edge outside the forest closes a cycle with
						// lighter edges, is split away from them into a
						// heavy part, and dies in that part's filter.
						if want := int64(len(g.Edges) - f.Size()); filtered != want {
							t.Errorf("%s: filtered %d edges, want all %d non-forest edges", name, filtered, want)
						}
					case fam.cycles && distinct && filtered == 0:
						t.Errorf("%s: the recursion filtered no heavy edge", name)
					}
				}
			}
		}
	}
}

// checkForest compares f with the Kruskal forest ref of g: weight, size
// and components, the sorted edge weights, structural validity, and with
// distinct weights the edge set itself.
func checkForest(t *testing.T, name string, g *graph.EdgeList, f, ref *graph.Forest, distinct bool) {
	t.Helper()
	if f.Components != ref.Components || f.Size() != ref.Size() {
		t.Fatalf("%s: got %d components / %d edges, Kruskal %d / %d",
			name, f.Components, f.Size(), ref.Components, ref.Size())
	}
	if f.Weight != ref.Weight && math.Abs(f.Weight-ref.Weight) > 1e-9*(1+math.Abs(ref.Weight)) {
		t.Fatalf("%s: weight %v, Kruskal %v", name, f.Weight, ref.Weight)
	}
	if !sameWeights(g, f, ref) {
		t.Fatalf("%s: sorted edge weights differ from Kruskal's", name)
	}
	if err := verify.Forest(g, f); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if distinct {
		got, want := slices.Clone(f.EdgeIDs), slices.Clone(ref.EdgeIDs)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: forest edge ids differ from Kruskal's with distinct weights", name)
		}
	}
}

// sameWeights reports whether forests a and b of g have equal sorted
// edge-weight sequences, as every pair of MSFs of g does. Unlike the
// totals, the sequences compare exactly when weights are infinite (a
// forest with both a +Inf and a -Inf edge totals NaN).
func sameWeights(g *graph.EdgeList, a, b *graph.Forest) bool {
	weights := func(f *graph.Forest) []float64 {
		ws := make([]float64, len(f.EdgeIDs))
		for i, id := range f.EdgeIDs {
			ws[i] = g.Edges[id].W
		}
		slices.Sort(ws)
		return ws
	}
	return slices.Equal(weights(a), weights(b))
}

// withLoops returns a copy of g with k self-loops appended, at weights
// drawn from [0, 1) like gen.Random's.
func withLoops(g *graph.EdgeList, k int, seed uint64) *graph.EdgeList {
	out := g.Clone()
	r := rng.New(seed)
	for i := 0; i < k; i++ {
		v := int32(r.Intn(g.N))
		out.Edges = append(out.Edges, graph.Edge{U: v, V: v, W: r.Float64()})
	}
	return out
}

// TestMultiBlockSplitParity runs the split pass on tasks of at least
// par.SeqCutoff edges at p > 1, so every classify and scatter pass is
// cut into claimed blocks, and the scatter's per-block light, heavy and
// dead cursors must meet exactly. With distinct weights the forest is
// Kruskal's edge set.
func TestMultiBlockSplitParity(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.EdgeList
	}{
		{"random", gen.Random(4000, 24000, 41)},
		{"random-loops", withLoops(gen.Random(3000, 18000, 42), 3000, 43)},
		{"mesh", gen.Mesh2D(100, 100, 44)},
	}
	for _, tc := range graphs {
		if len(tc.g.Edges) < 2*par.SeqCutoff {
			t.Fatalf("%s: %d edges, want at least %d", tc.name, len(tc.g.Edges), 2*par.SeqCutoff)
		}
		if !distinctWeights(tc.g) {
			t.Fatalf("%s: weights are not distinct", tc.name)
		}
		ref := seq.Kruskal(tc.g)
		for _, p := range []int{2, 4} {
			for _, cutoff := range []int{1 << 10, 1 << 12} {
				name := fmt.Sprintf("%s/p=%d/cutoff=%d", tc.name, p, cutoff)
				opt := Options{Workers: p, Seed: uint64(p + cutoff), Trace: obs.NewCollector()}
				f := solve(tc.g, opt, cutoff)
				checkForest(t, name, tc.g, f, ref, true)
				if opt.Trace.Summarize(nil).Args["filter.filtered"] == 0 {
					t.Errorf("%s: no heavy edge was filtered", name)
				}
			}
		}
	}
}

// TestOneWorkerIsCanonical pins that Bor-CAS at p = 1 picks exactly
// Kruskal's edges under heavy weight ties: the splits and the leaf sort
// are stable, so each weight's edges are hooked in ascending id order,
// which is Kruskal's tie-break.
func TestOneWorkerIsCanonical(t *testing.T) {
	families := []struct {
		name string
		g    *graph.EdgeList
	}{
		{"random", gen.Random(3000, 18000, 51)},
		{"mesh", gen.Mesh2D(60, 60, 52)},
		{"geometric", gen.Geometric(2000, 6, 53)},
		{"str0", gen.Str0(1024, 54)},
		{"str3", gen.Str3(1024, 55)},
		{"star", gen.Star(2000, 56)},
		{"loops", withLoops(gen.Random(2000, 8000, 57), 500, 58)},
	}
	for _, fam := range families {
		g := gen.Reweight(fam.g, gen.WeightsSmallInts, 59)
		want := slices.Clone(seq.Kruskal(g).EdgeIDs)
		slices.Sort(want)
		for _, cutoff := range []int{0, 1, 16, 1 << 10} {
			var f *graph.Forest
			if cutoff == 0 {
				f = Run(g, Options{Workers: 1, Seed: 60})
			} else {
				f = solve(g, Options{Workers: 1, Seed: 60}, cutoff)
			}
			got := slices.Clone(f.EdgeIDs)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s/cutoff=%d: p=1 forest edge ids differ from Kruskal's", fam.name, cutoff)
			}
		}
	}
}

// TestDerivedCutoff checks that Run sizes its leaf by the vertex count:
// on G(20k, m) the cutoff is n, so the filter drops most edges and at
// most 2n reach a sort, where a fixed 2^17 leaf sorted up to 6n. The
// cap holds the cutoff at 2^17 once n exceeds it.
func TestDerivedCutoff(t *testing.T) {
	const n = 20000
	for _, m := range []int{120000, 400000} {
		g := gen.Random(n, m, 61)
		f, s := traced(g, Options{Workers: 2, Seed: 62})
		checkForest(t, fmt.Sprintf("G(%d, %d)", n, m), g, f, seq.Kruskal(g), true)
		if c := s.Args["Bor-CAS.cutoff"]; c != n {
			t.Errorf("G(%d, %d): cutoff %d, want n = %d", n, m, c, n)
		}
		if sorted := s.Args["sort.elements"]; sorted > 2*n {
			t.Errorf("G(%d, %d): %d edges sorted, want at most 2n = %d", n, m, sorted, 2*n)
		}
	}
	_, s := traced(gen.Random(maxCutoff+1, 1000, 63), Options{Workers: 2})
	if c := s.Args["Bor-CAS.cutoff"]; c != maxCutoff {
		t.Errorf("n = %d: cutoff %d, want the cap %d", maxCutoff+1, c, maxCutoff)
	}
}

// Finish solves a graph given by reference: a subset of the input's
// edges, named by ids, with every endpoint read through a vertex map
// that folds vertices together (so some edges become self-loops and
// many become parallel). Its forest must be minimum on the explicitly
// mapped graph, with Kruskal's component count, and the team it ran on
// must stay open.
func TestFinishMapped(t *testing.T) {
	g := gen.Reweight(gen.Random(3000, 15000, 1), gen.WeightsSmallInts, 2)
	const k = 1000
	vmap := make([]int32, g.N)
	r := rng.New(3)
	for v := range vmap {
		vmap[v] = int32(r.Intn(k))
	}
	var ids []int32
	at := map[int32]int32{} // input id -> index in mapped
	mapped := &graph.EdgeList{N: k}
	for i, e := range g.Edges {
		if i%3 == 0 {
			continue
		}
		at[int32(i)] = int32(len(mapped.Edges))
		ids = append(ids, int32(i))
		mapped.Edges = append(mapped.Edges, graph.Edge{U: vmap[e.U], V: vmap[e.V], W: e.W})
	}
	ref := seq.Kruskal(mapped)
	for _, p := range []int{1, 2, 8} {
		team := par.NewTeam(p)
		f := Finish(team, g.Edges, slices.Clone(ids), vmap, k, 5, obs.Span{})
		team.Run(func(int) {})
		team.Close()
		mf := &graph.Forest{Weight: f.Weight, Components: f.Components}
		for _, id := range f.EdgeIDs {
			j, ok := at[id]
			if !ok {
				t.Fatalf("p=%d: forest edge %d is not in the id list", p, id)
			}
			mf.EdgeIDs = append(mf.EdgeIDs, j)
		}
		if err := verify.Minimum(mapped, mf); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if mf.Components != ref.Components {
			t.Fatalf("p=%d: %d components, Kruskal has %d", p, mf.Components, ref.Components)
		}
	}
}
