package boruvka

import (
	"testing"
	"time"

	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/model"
)

// Every Borůvka variant must at least halve the count of ACTIVE
// supervertices per iteration (each supervertex that still has an
// outgoing edge merges with at least one other; fully contracted
// components sit out), which bounds the iteration count by ceil(log2 n).
func TestVertexCountAtLeastHalves(t *testing.T) {
	g := gen.Random(4096, 16384, 1)
	comps := graph.ComponentCount(g)
	for _, v := range variants() {
		s := traced(v.run, g, Options{})
		if len(s.Rounds) == 0 {
			t.Fatalf("%s: no iterations", v.name)
		}
		for i := 1; i < len(s.Rounds); i++ {
			prev, cur := s.Rounds[i-1].Arg("n")-int64(comps), s.Rounds[i].Arg("n")-int64(comps)
			if cur > (prev+1)/2 {
				t.Errorf("%s: iteration %d: %d -> %d active (not halved)", v.name, i, prev, cur)
			}
		}
		if bound := model.PredictedIterations(g.N); len(s.Rounds) > bound {
			t.Errorf("%s: %d iterations exceed bound %d", v.name, len(s.Rounds), bound)
		}
		if s.Algorithm != v.name || s.Counts["iteration"] != len(s.Rounds) {
			t.Errorf("summary algorithm %q with %d of %d iterations as rounds, want %q",
				s.Algorithm, len(s.Rounds), s.Counts["iteration"], v.name)
		}
	}
}

// For EL/AL the working list shrinks every iteration (self-loops and
// duplicates are merged away). For FAL the chained-arc count includes
// stale entries and only shrinks when isolated chains disappear, so only
// non-increase is guaranteed there.
func TestListSizeShrinks(t *testing.T) {
	g := gen.Random(2048, 8192, 2)
	for _, v := range variants() {
		s := traced(v.run, g, Options{})
		for i := 1; i < len(s.Rounds); i++ {
			prev, cur := s.Rounds[i-1].Arg("list_size"), s.Rounds[i].Arg("list_size")
			switch v.name {
			case "Bor-FAL":
				if cur > prev {
					t.Errorf("%s: list grew %d -> %d", v.name, prev, cur)
				}
			default:
				if cur >= prev {
					t.Errorf("%s: list did not shrink %d -> %d", v.name, prev, cur)
				}
			}
		}
	}
}

// Results are identical regardless of worker count: the algorithms are
// deterministic given the tie-breaking by edge id.
func TestDeterministicAcrossWorkers(t *testing.T) {
	g := gen.Random(3000, 12000, 3)
	for _, v := range variants() {
		var refWeight float64
		var refSize int
		for i, p := range []int{1, 2, 3, 8, 17} {
			f := v.run(g, Options{Workers: p, Seed: uint64(p)})
			if i == 0 {
				refWeight, refSize = f.Weight, f.Size()
				continue
			}
			if f.Weight != refWeight || f.Size() != refSize {
				t.Errorf("%s: p=%d result differs", v.name, p)
			}
		}
	}
}

// Duplicate weights: correctness must not depend on distinctness.
func TestDuplicateWeights(t *testing.T) {
	g := gen.Random(1000, 5000, 4)
	for i := range g.Edges {
		g.Edges[i].W = float64(i % 3)
	}
	want := EL(g, Options{})
	for _, v := range variants() {
		f := v.run(g, Options{Workers: 4})
		if f.Weight != want.Weight {
			t.Errorf("%s: weight %g, want %g", v.name, f.Weight, want.Weight)
		}
	}
}

// The summary's first iteration must see the full graph.
func TestStatsFirstIteration(t *testing.T) {
	g := gen.Random(1024, 4096, 5)
	s := traced(EL, g, Options{})
	it := s.Rounds[0]
	if it.Arg("n") != int64(g.N) {
		t.Fatalf("first iteration n = %d, want %d", it.Arg("n"), g.N)
	}
	if it.Arg("list_size") != int64(2*len(g.Edges)) {
		t.Fatalf("first iteration list = %d, want %d", it.Arg("list_size"), 2*len(g.Edges))
	}
	// Step-time totals match the per-iteration sums.
	for _, step := range []string{"find-min", "connect-components", "compact-graph"} {
		var sum time.Duration
		for _, it := range s.Rounds {
			sum += it.Step(step)
		}
		if sum != s.PhaseTotal(step) {
			t.Fatalf("%s: total %v != sum %v", step, s.PhaseTotal(step), sum)
		}
	}
}

// The paper's Fig. 2 claims, checked as work counters rather than wall
// time: Bor-FAL's compact-graph does O(n) pointer work instead of O(m)
// sorting, so its *find-min* carries the filtering cost — its total
// scanned arcs exceed Bor-AL's.
func TestFALShiftsWorkToFindMin(t *testing.T) {
	g := gen.Random(4096, 40960, 6)
	sAL := traced(AL, g, Options{})
	sFAL := traced(FAL, g, Options{})
	var alArcs, falArcs int64
	for _, it := range sAL.Rounds {
		alArcs += it.Arg("list_size")
	}
	for _, it := range sFAL.Rounds {
		falArcs += it.Arg("list_size")
	}
	if falArcs <= alArcs {
		t.Fatalf("FAL scanned %d arcs <= AL's %d; filtering cost should exceed compaction savings in scans",
			falArcs, alArcs)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}
	if o.workers() <= 0 {
		t.Fatal("default workers must be positive")
	}
	if o.cutoff() <= 0 {
		t.Fatal("default cutoff must be positive")
	}
	o = Options{Workers: 3, InsertionCutoff: 7}
	if o.workers() != 3 || o.cutoff() != 7 {
		t.Fatal("explicit options ignored")
	}
}

// Insertion cutoff is behaviour-preserving: any cutoff yields the same
// forest.
func TestCutoffInvariance(t *testing.T) {
	g := gen.Random(1000, 6000, 7)
	ref := AL(g, Options{InsertionCutoff: 2})
	for _, cutoff := range []int{4, 64, 1 << 20} {
		f := AL(g, Options{InsertionCutoff: cutoff})
		if f.Weight != ref.Weight {
			t.Errorf("cutoff %d changed the result", cutoff)
		}
	}
}

func TestCompactWorkListProperties(t *testing.T) {
	g := gen.Random(500, 3000, 8)
	edges := graph.DirectedWorkList(g)
	out, starts := CompactWorkList(SortSampleSort, 4, edges, g.N, 1)
	if len(starts) != g.N+1 {
		t.Fatalf("starts length %d", len(starts))
	}
	if starts[0] != 0 || starts[g.N] != int64(len(out)) {
		t.Fatal("boundary starts wrong")
	}
	for i := 1; i < len(out); i++ {
		if wedgeLess(out[i], out[i-1]) {
			t.Fatalf("output not sorted at %d", i)
		}
		if out[i].U == out[i-1].U && out[i].V == out[i-1].V {
			t.Fatalf("duplicate (U,V) pair survived at %d", i)
		}
	}
	for _, e := range out {
		if e.U == e.V {
			t.Fatal("self-loop survived")
		}
	}
	// Segment starts delimit exactly the runs of U.
	for v := 0; v < g.N; v++ {
		for i := starts[v]; i < starts[v+1]; i++ {
			if out[i].U != int32(v) {
				t.Fatalf("edge %d in segment of %d has U=%d", i, v, out[i].U)
			}
		}
	}
}

// The sort engine is behaviour-preserving for Bor-EL: both engines pick
// each run's minimum by (W, ID), so they return the same forest edges.
func TestSortEngineInvariance(t *testing.T) {
	g := gen.Random(3000, 30000, 13)
	for _, p := range []int{1, 2, 4} {
		ref := EL(g, Options{SortEngine: SortSampleSort, Workers: p})
		alt := EL(g, Options{SortEngine: SortParallelRadix, Workers: p})
		if ref.Weight != alt.Weight || ref.Size() != alt.Size() {
			t.Fatalf("p=%d: parallel-radix changed the result", p)
		}
		want := map[int32]bool{}
		for _, id := range ref.EdgeIDs {
			want[id] = true
		}
		for _, id := range alt.EdgeIDs {
			if !want[id] {
				t.Fatalf("p=%d: parallel-radix picked edge %d, sample sort did not", p, id)
			}
		}
	}
	if SortSampleSort.String() == SortParallelRadix.String() {
		t.Fatal("engine names collide")
	}
	if SortEngine(9).String() != "unknown" {
		t.Fatal("unknown engine name")
	}
}
