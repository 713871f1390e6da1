package pmsf_test

import (
	"fmt"
	"strings"
	"testing"

	"pmsf"
)

func TestAllAlgorithmsAgree(t *testing.T) {
	graphs := map[string]*pmsf.Graph{
		"random":    pmsf.RandomGraph(2000, 8000, 1),
		"sparse":    pmsf.RandomGraph(2000, 2100, 2),
		"mesh":      pmsf.MeshGraph(40, 40, 3),
		"2d60":      pmsf.Mesh2D60Graph(40, 40, 4),
		"3d40":      pmsf.Mesh3D40Graph(11, 5),
		"geometric": pmsf.GeometricGraph(800, 6, 6),
		"str0":      pmsf.Str0Graph(512, 7),
		"str1":      pmsf.Str1Graph(500, 8),
		"str2":      pmsf.Str2Graph(500, 9),
		"str3":      pmsf.Str3Graph(500, 10),
	}
	for gname, g := range graphs {
		var refWeight float64
		var refEdges, refComps int
		for i, algo := range pmsf.Algorithms() {
			f, stats, err := pmsf.MinimumSpanningForest(g, algo, pmsf.Options{Workers: 4, Seed: 11})
			if err != nil {
				t.Fatalf("%s/%v: %v", gname, algo, err)
			}
			if stats != nil {
				t.Fatalf("%s/%v: stats without a Trace", gname, algo)
			}
			if i == 0 {
				refWeight, refEdges, refComps = f.Weight, f.Size(), f.Components
				if err := pmsf.Verify(g, f); err != nil {
					t.Fatalf("%s/%v: %v", gname, algo, err)
				}
				continue
			}
			if d := f.Weight - refWeight; d > 1e-9 || d < -1e-9 {
				t.Errorf("%s/%v: weight %g != %g", gname, algo, f.Weight, refWeight)
			}
			if f.Size() != refEdges || f.Components != refComps {
				t.Errorf("%s/%v: shape (%d,%d) != (%d,%d)",
					gname, algo, f.Size(), f.Components, refEdges, refComps)
			}
		}
	}
}

// A traced run returns its trace's summary: named after the algorithm,
// one round per Borůvka iteration or MST-BC level, and none for the
// round-free Bor-CAS, whose bucket count is a top-level arg.
func TestTraceStats(t *testing.T) {
	g := pmsf.RandomGraph(1000, 4000, 1)
	rounds := map[pmsf.Algorithm]string{pmsf.BorFAL: "iteration", pmsf.MSTBC: "level"}
	for _, algo := range pmsf.Algorithms() {
		tr := pmsf.NewTrace()
		f, stats, err := pmsf.MinimumSpanningForest(g, algo, pmsf.Options{Trace: tr, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if f.Size() != g.N-1 {
			t.Fatalf("%v: forest size %d", algo, f.Size())
		}
		if stats == nil || stats.SpanCount != len(tr.Spans()) {
			t.Fatalf("%v: stats %+v do not summarize the trace's %d spans", algo, stats, len(tr.Spans()))
		}
		if !algo.Parallel() {
			continue
		}
		if stats.Algorithm != algo.String() || stats.Workers != 4 {
			t.Fatalf("%v: stats identity %q/%d", algo, stats.Algorithm, stats.Workers)
		}
		if want, ok := rounds[algo]; ok && (len(stats.Rounds) == 0 || stats.Rounds[0].Name != want) {
			t.Fatalf("%v: rounds %+v, want %s rounds", algo, stats.Rounds, want)
		}
		if algo == pmsf.BorCAS && (len(stats.Rounds) != 0 || stats.Args["hook.buckets"] == 0) {
			t.Fatalf("%v: rounds %+v args %v, want no rounds and hook.buckets", algo, stats.Rounds, stats.Args)
		}
	}
}

func TestStatsOffByDefault(t *testing.T) {
	g := pmsf.RandomGraph(500, 2000, 1)
	_, stats, err := pmsf.MinimumSpanningForest(g, pmsf.BorEL, pmsf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats != nil {
		t.Fatalf("stats %+v collected without a Trace", stats)
	}
}

// TestCountersCountWithoutOptions pins that the process-wide counters
// need no switch: an untraced run with zero Options advances par_phases.
func TestCountersCountWithoutOptions(t *testing.T) {
	g := pmsf.RandomGraph(2000, 8000, 3)
	before := pmsf.Metrics().Snapshot()["par_phases"]
	if _, _, err := pmsf.MinimumSpanningForest(g, pmsf.BorEL, pmsf.Options{}); err != nil {
		t.Fatal(err)
	}
	if after := pmsf.Metrics().Snapshot()["par_phases"]; after <= before {
		t.Fatalf("par_phases stayed at %d across an untraced Bor-EL run", after)
	}
}

func TestInputValidation(t *testing.T) {
	if _, _, err := pmsf.MinimumSpanningForest(nil, pmsf.BorEL, pmsf.Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	bad := pmsf.NewGraph(2, []pmsf.Edge{{U: 0, V: 9, W: 1}})
	if _, _, err := pmsf.MinimumSpanningForest(bad, pmsf.BorEL, pmsf.Options{}); err == nil {
		t.Fatal("invalid edge accepted")
	}
	g := pmsf.RandomGraph(10, 20, 1)
	if _, _, err := pmsf.MinimumSpanningForest(g, pmsf.Algorithm(99), pmsf.Options{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]pmsf.Algorithm{
		"Bor-EL":  pmsf.BorEL,
		"bor-el":  pmsf.BorEL,
		"BOREL":   pmsf.BorEL,
		"bor-fal": pmsf.BorFAL,
		"mstbc":   pmsf.MSTBC,
		"MST-BC":  pmsf.MSTBC,
		"prim":    pmsf.SeqPrim,
		"Kruskal": pmsf.SeqKruskal,
		"boruvka": pmsf.SeqBoruvka,
	}
	for in, want := range cases {
		got, err := pmsf.ParseAlgorithm(in)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := pmsf.ParseAlgorithm("dijkstra"); err == nil {
		t.Error("unknown name accepted")
	}
}

// TestParseAlgorithmRoundTrip checks the full property behind the table
// above: for every algorithm, the canonical name and its case-folded and
// dash-stripped variants all parse back to the same value, and near-miss
// strings are rejected with the name echoed in the error.
func TestParseAlgorithmRoundTrip(t *testing.T) {
	for _, a := range pmsf.Algorithms() {
		name := a.String()
		variants := []string{
			name,
			strings.ToLower(name),
			strings.ToUpper(name),
			strings.ReplaceAll(name, "-", ""),
			strings.ToLower(strings.ReplaceAll(name, "-", "")),
		}
		for _, v := range variants {
			got, err := pmsf.ParseAlgorithm(v)
			if err != nil {
				t.Errorf("ParseAlgorithm(%q): %v", v, err)
				continue
			}
			if got != a {
				t.Errorf("ParseAlgorithm(%q) = %v, want %v", v, got, a)
			}
		}
	}
	for _, bad := range []string{"", " ", "bor", "bor-", "bor-el ", "el", "-", "mst_bc", "filter2"} {
		if got, err := pmsf.ParseAlgorithm(bad); err == nil {
			t.Errorf("ParseAlgorithm(%q) = %v, want error", bad, got)
		} else if bad != "" && !strings.Contains(err.Error(), bad) {
			t.Errorf("ParseAlgorithm(%q) error does not echo the input: %v", bad, err)
		}
	}
}

func TestAlgorithmMetadata(t *testing.T) {
	if len(pmsf.Algorithms()) != 9 || len(pmsf.ParallelAlgorithms()) != 6 {
		t.Fatal("algorithm lists wrong")
	}
	for _, a := range pmsf.ParallelAlgorithms() {
		if !a.Parallel() {
			t.Errorf("%v not marked parallel", a)
		}
	}
	if pmsf.SeqPrim.Parallel() {
		t.Error("Prim marked parallel")
	}
	if pmsf.Algorithm(99).String() == "" {
		t.Error("unknown algorithm has empty String")
	}
}

func TestDeterministicResults(t *testing.T) {
	// Same options → the same forest, for every algorithm. MST-BC is
	// non-deterministic in execution order (concurrent claiming), so its
	// weight may only agree up to floating-point summation order; the
	// Borůvka variants and sequential baselines are exactly repeatable.
	g := pmsf.RandomGraph(1000, 3000, 5)
	for _, algo := range pmsf.Algorithms() {
		f1, _, err1 := pmsf.MinimumSpanningForest(g, algo, pmsf.Options{Workers: 3, Seed: 9})
		f2, _, err2 := pmsf.MinimumSpanningForest(g, algo, pmsf.Options{Workers: 3, Seed: 9})
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if f1.Size() != f2.Size() {
			t.Errorf("%v: forest sizes differ", algo)
		}
		d := f1.Weight - f2.Weight
		if d > 1e-9 || d < -1e-9 {
			t.Errorf("%v: weights differ: %v vs %v", algo, f1.Weight, f2.Weight)
		}
		if algo != pmsf.MSTBC && f1.Weight != f2.Weight {
			t.Errorf("%v: not exactly repeatable", algo)
		}
	}
}

func ExampleMinimumSpanningForest() {
	g := pmsf.NewGraph(4, []pmsf.Edge{
		{U: 0, V: 1, W: 1.0},
		{U: 1, V: 2, W: 2.0},
		{U: 2, V: 3, W: 4.0},
		{U: 0, V: 3, W: 3.0},
		{U: 0, V: 2, W: 5.0},
	})
	forest, _, err := pmsf.MinimumSpanningForest(g, pmsf.MSTBC, pmsf.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("weight=%.0f edges=%d components=%d\n",
		forest.Weight, forest.Size(), forest.Components)
	// Output: weight=6 edges=3 components=1
}

func ExampleAlgorithm_String() {
	fmt.Println(pmsf.BorFAL, pmsf.MSTBC, pmsf.SeqPrim)
	// Output: Bor-FAL MST-BC Prim
}

func TestPermuteGraph(t *testing.T) {
	g := pmsf.RandomGraph(300, 900, 1)
	pg := pmsf.PermuteGraph(g, 2)
	f1, _, err1 := pmsf.MinimumSpanningForest(g, pmsf.SeqKruskal, pmsf.Options{})
	f2, _, err2 := pmsf.MinimumSpanningForest(pg, pmsf.SeqKruskal, pmsf.Options{})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	// Relabeling preserves the MSF weight exactly (same edge multiset).
	if f1.Weight != f2.Weight {
		t.Fatalf("permutation changed MSF weight: %g vs %g", f1.Weight, f2.Weight)
	}
}
