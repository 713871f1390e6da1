package mstbc

import (
	"testing"

	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/verify"
)

// traced runs MST-BC on g under a fresh trace and returns the forest and
// the run's span summary.
func traced(g *graph.EdgeList, opt Options) (*graph.Forest, *obs.Summary) {
	opt.Trace = obs.NewCollector()
	f := Run(g, opt)
	return f, opt.Trace.Summarize(nil)
}

// NoPermute (the ablation toggle) must not affect correctness.
func TestNoPermuteCorrect(t *testing.T) {
	g := gen.Random(2000, 8000, 1)
	for _, p := range []int{1, 4} {
		f := Run(g, Options{Workers: p, NoPermute: true, BaseSize: 32, Seed: 3})
		if err := verify.Full(g, f); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// The summary must be coherent: levels' n decrease, trees+collisions
// counted, base-case sizes recorded, and every vertex of a level
// accounted for.
func TestStatsCoherent(t *testing.T) {
	g := gen.Random(4000, 16000, 2)
	f, s := traced(g, Options{Workers: 4, BaseSize: 64, Seed: 5})
	if err := verify.Full(g, f); err != nil {
		t.Fatal(err)
	}
	if s.Algorithm != "MST-BC" || s.Workers != 4 {
		t.Fatalf("summary identity = %q/%d", s.Algorithm, s.Workers)
	}
	if len(s.Rounds) == 0 || len(s.Rounds) != s.Counts["level"] {
		t.Fatalf("%d level rounds of %d level spans", len(s.Rounds), s.Counts["level"])
	}
	prevN := int64(g.N + 1)
	for i, lv := range s.Rounds {
		n := lv.Arg("n")
		if n >= prevN {
			t.Fatalf("level %d: n %d did not decrease from %d", i, n, prevN)
		}
		prevN = n
		if lv.Arg("trees") <= 0 {
			t.Fatalf("level %d: %d trees", i, lv.Arg("trees"))
		}
		if lv.Arg("visited") > n {
			t.Fatalf("level %d: visited %d > n %d", i, lv.Arg("visited"), n)
		}
		if lv.Arg("m") <= 0 {
			t.Fatalf("level %d: m = %d", i, lv.Arg("m"))
		}
		if lv.Step("grow") <= 0 {
			t.Fatalf("level %d: grow time not recorded", i)
		}
	}
	if n := s.Args["seq-base.n"]; n > 64 {
		t.Fatalf("sequential base ran at n=%d > nb=64", n)
	}
	if s.PhaseTotal("MST-BC") <= 0 {
		t.Fatal("total time not recorded")
	}
}

// With a huge BaseSize the whole problem goes to the sequential solver;
// with BaseSize 1 the parallel levels must carry it all the way down.
func TestBaseSizeExtremes(t *testing.T) {
	g := gen.Random(1000, 4000, 3)
	fBig, sBig := traced(g, Options{Workers: 4, BaseSize: 1 << 30, Seed: 1})
	if err := verify.Minimum(g, fBig); err != nil {
		t.Fatal(err)
	}
	if n := sBig.Counts["level"]; n != 0 {
		t.Fatalf("huge BaseSize still ran %d parallel levels", n)
	}
	fSmall, sSmall := traced(g, Options{Workers: 4, BaseSize: 1, Seed: 1})
	if err := verify.Minimum(g, fSmall); err != nil {
		t.Fatal(err)
	}
	if sSmall.Counts["level"] == 0 {
		t.Fatal("BaseSize=1 ran no parallel levels")
	}
	if d := fBig.Weight - fSmall.Weight; d > 1e-9 || d < -1e-9 {
		t.Fatal("BaseSize changed the forest weight")
	}
}

// p=1 is the "behaves as Prim" mode: a single processor grows whole
// components, so level 1 grows exactly one tree per component and visits
// every vertex; no collisions can occur.
func TestSingleWorkerBehavesAsPrim(t *testing.T) {
	g := gen.Random(2000, 8000, 4)
	f, s := traced(g, Options{Workers: 1, BaseSize: 16, Seed: 7})
	if err := verify.Full(g, f); err != nil {
		t.Fatal(err)
	}
	if len(s.Rounds) != 1 {
		t.Fatalf("p=1 took %d levels, want 1", len(s.Rounds))
	}
	lv := s.Rounds[0]
	if c := lv.Arg("collisions"); c != 0 {
		t.Fatalf("p=1 recorded %d collisions", c)
	}
	if tr := lv.Arg("trees"); tr != int64(f.Components) {
		t.Fatalf("p=1 grew %d trees, want one per component (%d)", tr, f.Components)
	}
	if lv.Arg("visited") != lv.Arg("n") {
		t.Fatalf("p=1 visited %d of %d vertices", lv.Arg("visited"), lv.Arg("n"))
	}
}

// Many workers on a tiny graph: heavier contention than vertices.
func TestMoreWorkersThanVertices(t *testing.T) {
	g := gen.Random(16, 40, 5)
	f := Run(g, Options{Workers: 64, BaseSize: 1, Seed: 2})
	if err := verify.Full(g, f); err != nil {
		t.Fatal(err)
	}
}

// The pathological-synchronization fallback: a cycle arrangement where
// every processor could claim and immediately mature. Whatever the
// interleaving, progress and correctness must hold.
func TestCycleGraphProgress(t *testing.T) {
	// One big cycle: the paper's example of potential zero progress.
	n := 64
	g := &graph.EdgeList{N: n}
	for i := 0; i < n; i++ {
		g.Edges = append(g.Edges, graph.Edge{
			U: int32(i), V: int32((i + 1) % n), W: float64(i) + 0.5,
		})
	}
	for rep := 0; rep < 20; rep++ {
		f := Run(g, Options{Workers: 8, BaseSize: 1, Seed: uint64(rep), NoPermute: true})
		if err := verify.Full(g, f); err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
	}
}
