package dynmsf

import (
	"math"
	"slices"
	"strings"
	"testing"

	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/seq"
	"pmsf/internal/verify"
)

// newHandle seeds a handle with the sequential Kruskal MSF of g.
func newHandle(t *testing.T, g *graph.EdgeList, opt Options) *Handle {
	t.Helper()
	h, err := New(g, seq.Kruskal(g), opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return h
}

// checkMinimum asserts the maintained forest is the exact MSF of the
// handle's live graph.
func checkMinimum(t *testing.T, h *Handle) {
	t.Helper()
	g, f := h.SnapshotWithForest()
	if err := verify.Minimum(g, f); err != nil {
		t.Fatalf("maintained forest is not the MSF: %v", err)
	}
}

// counters is the handle's size bookkeeping, read in one critical
// section so every field belongs to the same committed batch.
type counters struct {
	liveEdges, deadEdges, storeEdges int
	trees, forestSize                int
	weight                           float64
}

func readCounters(h *Handle) counters {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return counters{
		liveEdges:  len(h.live.Edges) - h.dead,
		deadEdges:  h.dead,
		storeEdges: len(h.live.Edges),
		trees:      h.trees,
		forestSize: h.forestSize,
		weight:     h.weight.value(),
	}
}

func pathGraph(n int) *graph.EdgeList {
	g := &graph.EdgeList{N: n}
	for i := 0; i < n-1; i++ {
		g.Edges = append(g.Edges, graph.Edge{U: int32(i), V: int32(i + 1), W: float64(i + 1)})
	}
	return g
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(nil, nil, Options{}); err == nil {
		t.Fatal("nil input accepted")
	}
	g := pathGraph(4)
	if _, err := New(g, &graph.Forest{EdgeIDs: []int32{0, 0}}, Options{}); err == nil {
		t.Fatal("duplicate forest id accepted")
	}
	bad := &graph.EdgeList{N: 2, Edges: []graph.Edge{{U: 0, V: 5, W: 1}}}
	if _, err := New(bad, &graph.Forest{}, Options{}); err == nil {
		t.Fatal("invalid graph accepted")
	}
}

func TestInsertSwapsHeavierTreeEdge(t *testing.T) {
	// Path 0-1-2-3 with weights 1,2,3; adding (0,3,w=0.5) must displace
	// the heaviest cycle edge (2-3, w=3).
	h := newHandle(t, pathGraph(4), Options{})
	d, err := h.ApplyEdges([]graph.Edge{{U: 0, V: 3, W: 0.5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Swaps != 1 || d.Links != 0 {
		t.Fatalf("delta = %+v, want exactly one swap", d)
	}
	if want := 1 + 2 + 0.5; d.Weight != want {
		t.Fatalf("weight = %g, want %g", d.Weight, want)
	}
	checkMinimum(t, h)
}

func TestInsertHeavyEdgeGoesToPool(t *testing.T) {
	h := newHandle(t, pathGraph(4), Options{})
	d, err := h.ApplyEdges([]graph.Edge{{U: 0, V: 3, W: 99}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Swaps != 0 || d.Links != 0 || d.ForestSize != 3 {
		t.Fatalf("delta = %+v, want a pure pool insert", d)
	}
	checkMinimum(t, h)
}

func TestInsertLinksTrees(t *testing.T) {
	// Two disjoint paths; a cross edge must link them whatever its weight.
	g := &graph.EdgeList{N: 4, Edges: []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1},
	}}
	h := newHandle(t, g, Options{})
	d, err := h.ApplyEdges([]graph.Edge{{U: 1, V: 2, W: 1e6}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Links != 1 || d.Components != 1 {
		t.Fatalf("delta = %+v, want one link down to one component", d)
	}
	checkMinimum(t, h)
}

func TestDeleteTreeEdgeFindsReplacement(t *testing.T) {
	// Cycle 0-1-2-3-0: MSF drops the heaviest edge (3-0, w=4). Deleting
	// tree edge 1-2 must promote 3-0 back in.
	g := &graph.EdgeList{N: 4, Edges: []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 3}, {U: 3, V: 0, W: 4},
	}}
	h := newHandle(t, g, Options{})
	d, err := h.ApplyEdges(nil, []graph.Edge{{U: 1, V: 2, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Replacements != 1 || d.Splits != 0 || d.Components != 1 {
		t.Fatalf("delta = %+v, want one replacement and no split", d)
	}
	if want := 1.0 + 3 + 4; d.Weight != want {
		t.Fatalf("weight = %g, want %g", d.Weight, want)
	}
	checkMinimum(t, h)
}

func TestDeleteDisconnectsThenReconnects(t *testing.T) {
	h := newHandle(t, pathGraph(5), Options{})
	d, err := h.ApplyEdges(nil, []graph.Edge{{U: 2, V: 3, W: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Splits != 1 || d.Components != 2 {
		t.Fatalf("delta = %+v, want a split into two components", d)
	}
	checkMinimum(t, h)
	d, err = h.ApplyEdges([]graph.Edge{{U: 0, V: 4, W: 10}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Links != 1 || d.Components != 1 {
		t.Fatalf("delta = %+v, want a relink", d)
	}
	checkMinimum(t, h)
}

func TestDeleteByValueEitherOrientation(t *testing.T) {
	h := newHandle(t, pathGraph(4), Options{})
	if _, err := h.ApplyEdges(nil, []graph.Edge{{U: 2, V: 1, W: 2}}); err != nil {
		t.Fatalf("reversed-orientation delete failed: %v", err)
	}
	checkMinimum(t, h)
}

func TestDeleteDuplicateValuesConsumesOneEach(t *testing.T) {
	// Two parallel (0,1,w=5) edges: one in the forest, one in the pool.
	g := &graph.EdgeList{N: 2, Edges: []graph.Edge{
		{U: 0, V: 1, W: 5}, {U: 0, V: 1, W: 5},
	}}
	h := newHandle(t, g, Options{})
	d, err := h.ApplyEdges(nil, []graph.Edge{{U: 0, V: 1, W: 5}})
	if err != nil {
		t.Fatal(err)
	}
	// The non-forest copy must have been consumed: still connected.
	if d.Components != 1 || d.Replacements != 0 {
		t.Fatalf("delta = %+v, want the pool copy deleted with no repair", d)
	}
	checkMinimum(t, h)
	// Deleting the same value again removes the tree copy and disconnects.
	d, err = h.ApplyEdges(nil, []graph.Edge{{U: 0, V: 1, W: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Components != 2 || d.Splits != 1 {
		t.Fatalf("delta = %+v, want a disconnect", d)
	}
	// A third delete has nothing left to match.
	if _, err := h.ApplyEdges(nil, []graph.Edge{{U: 0, V: 1, W: 5}}); err == nil {
		t.Fatal("deleting a missing edge succeeded")
	}
}

func TestBatchValidationIsAtomic(t *testing.T) {
	h := newHandle(t, pathGraph(4), Options{})
	before := readCounters(h)
	// Valid delete plus an out-of-range add: nothing may change.
	_, err := h.ApplyEdges([]graph.Edge{{U: 0, V: 99, W: 1}}, []graph.Edge{{U: 0, V: 1, W: 1}})
	if err == nil {
		t.Fatal("out-of-range add accepted")
	}
	// Valid add plus an unresolvable delete: nothing may change.
	_, err = h.ApplyEdges([]graph.Edge{{U: 0, V: 2, W: 1}}, []graph.Edge{{U: 0, V: 3, W: 123}})
	if err == nil {
		t.Fatal("unresolvable delete accepted")
	}
	if after := readCounters(h); after != before {
		t.Fatalf("failed batch mutated the handle: %+v -> %+v", before, after)
	}
	checkMinimum(t, h)
}

func TestDeleteOfSameBatchAddErrors(t *testing.T) {
	h := newHandle(t, pathGraph(3), Options{})
	_, err := h.ApplyEdges(
		[]graph.Edge{{U: 0, V: 2, W: 7}},
		[]graph.Edge{{U: 0, V: 2, W: 7}},
	)
	if err == nil || !strings.Contains(err.Error(), "live before the batch") {
		t.Fatalf("err = %v, want the pre-batch liveness contract spelled out", err)
	}
}

func TestSelfLoopsAreInertButDeletable(t *testing.T) {
	h := newHandle(t, pathGraph(3), Options{})
	d, err := h.ApplyEdges([]graph.Edge{{U: 1, V: 1, W: 0.001}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Swaps != 0 || d.Links != 0 || d.ForestSize != 2 {
		t.Fatalf("delta = %+v, self-loop must not enter the forest", d)
	}
	checkMinimum(t, h)
	if _, err := h.ApplyEdges(nil, []graph.Edge{{U: 1, V: 1, W: 0.001}}); err != nil {
		t.Fatalf("self-loop delete failed: %v", err)
	}
	checkMinimum(t, h)
}

func TestCutoffFallbackRecompute(t *testing.T) {
	// Three intra-tree insertions on one path in one batch, the input
	// that once forced the scoped-recompute fallback: the two light ones
	// each displace the heaviest edge on their cycle, the heavy one goes
	// to the pool.
	h := newHandle(t, pathGraph(10), Options{})
	add := []graph.Edge{
		{U: 0, V: 5, W: 0.5}, {U: 2, V: 8, W: 0.25}, {U: 1, V: 9, W: 50},
	}
	d, err := h.ApplyEdges(add, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Swaps != 2 || d.Links != 0 || d.Rebuilds != 0 || d.FallbackRecomputes != 0 {
		t.Fatalf("delta = %+v, want exactly two swaps", d)
	}
	checkMinimum(t, h)
}

func TestRebuildLimitEscalatesToRecompute(t *testing.T) {
	// Nested improving inserts on one path, the chain that once exhausted
	// the path-max rebuild limit: each closes a cycle through the edges
	// the previous ones left, so every one of them swaps.
	h := newHandle(t, pathGraph(12), Options{})
	add := []graph.Edge{
		{U: 0, V: 11, W: 0.9}, {U: 1, V: 10, W: 0.8}, {U: 2, V: 9, W: 0.7},
		{U: 3, V: 8, W: 0.6}, {U: 4, V: 7, W: 0.5},
	}
	d, err := h.ApplyEdges(add, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Swaps != 5 || d.Links != 0 {
		t.Fatalf("delta = %+v, want five swaps", d)
	}
	if want := 1.0 + 2 + 3 + 4 + 5 + 6 + 0.5 + 0.6 + 0.7 + 0.8 + 0.9; math.Abs(d.Weight-want) > 1e-12 {
		t.Fatalf("weight = %g, want %g", d.Weight, want)
	}
	checkMinimum(t, h)
}

func TestCompactionShrinksStore(t *testing.T) {
	g := pathGraph(64)
	h := newHandle(t, g, Options{})
	// Churn well past compactMinDead tombstones.
	var live []graph.Edge
	for round := 0; round < 12; round++ {
		var add []graph.Edge
		for i := 0; i < 512; i++ {
			u := int32((round*7 + i) % 63)
			add = append(add, graph.Edge{U: u, V: u + 1, W: 1000 + float64(round*512+i)})
		}
		if _, err := h.ApplyEdges(add, live); err != nil {
			t.Fatal(err)
		}
		live = add
	}
	st := readCounters(h)
	// Without compaction the store would hold every edge ever appended.
	if total := 63 + 12*512; st.storeEdges >= total {
		t.Fatalf("store was never compacted: %+v", st)
	}
	if want := 63 + 512; st.liveEdges != want {
		t.Fatalf("live edges = %d, want %d", st.liveEdges, want)
	}
	checkMinimum(t, h)
}

// TestNewAllocsFlat pins New's adjacency build: each structure is cut
// from one backing array, so the allocation count does not grow with m.
func TestNewAllocsFlat(t *testing.T) {
	g := gen.Random(20000, 120000, 1)
	f := seq.Kruskal(g)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := New(g, f, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("New on G(20000, 120000) makes %.0f allocations, want at most 64", allocs)
	}
}

// TestOverflowLeavesNeighbourPoolsIntact inserts more non-tree edges at
// one vertex than init counted for it, in one batch and then across
// batches. Its neighbours in the backing array, vertices 1 and 3, are
// leaves whose only replacement edge sits in their own pool, so a write
// past vertex 2's region would lose it.
func TestOverflowLeavesNeighbourPoolsIntact(t *testing.T) {
	// Tree: path 0-2-4-5-6-7 with leaves 1 (off 6) and 3 (off 7).
	// Non-tree: (1,5) and (3,0) replace the leaves' tree edges; (2,5)
	// gives vertex 2 a counted pool of one.
	g := &graph.EdgeList{N: 8, Edges: []graph.Edge{
		{U: 0, V: 2, W: 1}, {U: 2, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 5, V: 6, W: 1},
		{U: 6, V: 7, W: 1}, {U: 1, V: 6, W: 1}, {U: 3, V: 7, W: 1},
		{U: 1, V: 5, W: 5}, {U: 3, V: 0, W: 5}, {U: 2, V: 5, W: 9},
	}}
	h := newHandle(t, g, Options{})
	if c := cap(h.nadj[2]); c != 1 {
		t.Fatalf("vertex 2 pool capacity %d, want its count 1", c)
	}
	pool1, pool3 := slices.Clone(h.nadj[1]), slices.Clone(h.nadj[3])

	heavy := func(w0 float64, k int) []graph.Edge {
		var add []graph.Edge
		for i := 0; i < k; i++ {
			add = append(add, graph.Edge{U: 2, V: []int32{0, 4, 5, 6, 7}[i%5], W: w0 + float64(i)})
		}
		return add
	}
	for _, add := range [][]graph.Edge{heavy(100, 6), heavy(200, 3), heavy(300, 9)} {
		if _, err := h.ApplyEdges(add, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(h.nadj[1], pool1) || !slices.Equal(h.nadj[3], pool3) {
		t.Fatalf("neighbour pools changed: vertex 1 %v -> %v, vertex 3 %v -> %v", pool1, h.nadj[1], pool3, h.nadj[3])
	}

	d, err := h.ApplyEdges(nil, []graph.Edge{{U: 1, V: 6, W: 1}, {U: 3, V: 7, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Replacements != 2 {
		t.Fatalf("delta %+v, want both leaves reconnected", d)
	}
	live, f := h.SnapshotWithForest()
	got, want := slices.Clone(f.EdgeIDs), seq.Kruskal(live).EdgeIDs
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("forest %v, Kruskal %v", got, want)
	}
}

func TestForestMatchesSnapshot(t *testing.T) {
	h := newHandle(t, pathGraph(6), Options{})
	if _, err := h.ApplyEdges([]graph.Edge{{U: 0, V: 4, W: 0.5}}, []graph.Edge{{U: 1, V: 2, W: 2}}); err != nil {
		t.Fatal(err)
	}
	g, sf := h.SnapshotWithForest()
	st := readCounters(h)
	if len(sf.EdgeIDs) != st.forestSize || sf.Components != st.trees {
		t.Fatalf("snapshot forest %+v disagrees with the handle's counters %+v", sf, st)
	}
	if diff := sf.Weight - st.weight; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("weights differ: %g vs %g", sf.Weight, st.weight)
	}
	// Snapshot forest ids index the compacted snapshot graph.
	if len(g.Edges) != st.liveEdges {
		t.Fatalf("snapshot has %d edges, handle has %d live", len(g.Edges), st.liveEdges)
	}
	for _, id := range sf.EdgeIDs {
		if int(id) >= len(g.Edges) {
			t.Fatalf("forest id %d out of snapshot range", id)
		}
	}
}

func TestObsCountersAdvance(t *testing.T) {
	applied := obs.DynAppliedEdges.Value()
	reps := obs.DynReplacements.Value()
	g := &graph.EdgeList{N: 4, Edges: []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 3}, {U: 3, V: 0, W: 4},
	}}
	h := newHandle(t, g, Options{})
	if _, err := h.ApplyEdges([]graph.Edge{{U: 0, V: 2, W: 9}}, []graph.Edge{{U: 1, V: 2, W: 2}}); err != nil {
		t.Fatal(err)
	}
	if obs.DynAppliedEdges.Value() != applied+2 {
		t.Fatalf("dyn_applied_edges advanced by %d, want 2", obs.DynAppliedEdges.Value()-applied)
	}
	if obs.DynReplacements.Value() != reps+1 {
		t.Fatalf("dyn_replacements advanced by %d, want 1", obs.DynReplacements.Value()-reps)
	}
}

func TestTraceSpansEmitted(t *testing.T) {
	c := obs.NewCollector()
	h := newHandle(t, pathGraph(4), Options{Trace: c})
	if _, err := h.ApplyEdges([]graph.Edge{{U: 0, V: 3, W: 0.5}}, nil); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range c.Spans() {
		names[s.Name] = true
	}
	if !names["apply-batch"] || !names["insert"] {
		t.Fatalf("spans = %v, want apply-batch with an insert child", names)
	}
}

func TestInfiniteTreeEdgesKeepWeightFinite(t *testing.T) {
	inf := math.Inf(1)
	g := &graph.EdgeList{N: 3, Edges: []graph.Edge{{U: 0, V: 1, W: inf}, {U: 1, V: 2, W: 1}}}
	h := newHandle(t, g, Options{})
	steps := []struct {
		add, del []graph.Edge
		want     float64
	}{
		{nil, []graph.Edge{{U: 0, V: 1, W: inf}}, 1},   // delete the infinite tree edge
		{[]graph.Edge{{U: 0, V: 1, W: inf}}, nil, inf}, // link it back
		{[]graph.Edge{{U: 0, V: 2, W: 0.5}}, nil, 1.5}, // swap it out
	}
	for i, st := range steps {
		d, err := h.ApplyEdges(st.add, st.del)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if _, f := h.SnapshotWithForest(); d.Weight != st.want || f.Weight != st.want {
			t.Fatalf("step %d: delta weight %v, snapshot %v, want %v", i, d.Weight, f.Weight, st.want)
		}
	}
	checkMinimum(t, h)
}

func TestMidPathDeletionBothSidesLarge(t *testing.T) {
	// A 2000-vertex path with light edges and three heavier chords that
	// cross its middle. Cutting the middle edge leaves two 1000-vertex
	// sides; the lightest crossing chord must replace it.
	const n = 2000
	g := &graph.EdgeList{N: n}
	for i := 0; i < n-1; i++ {
		g.Edges = append(g.Edges, graph.Edge{U: int32(i), V: int32(i + 1), W: 1})
	}
	g.Edges = append(g.Edges,
		graph.Edge{U: 10, V: 1990, W: 7}, graph.Edge{U: 400, V: 1200, W: 5},
		graph.Edge{U: 0, V: 999, W: 2}, // light, but both ends on one side
		graph.Edge{U: 998, V: 1001, W: 6},
	)
	c := obs.NewCollector()
	h := newHandle(t, g, Options{Trace: c})
	d, err := h.ApplyEdges(nil, []graph.Edge{{U: 999, V: 1000, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Replacements != 1 || d.Splits != 0 || d.Weight != n-2+5 {
		t.Fatalf("delta = %+v, want chord (400,1200,5) as the one replacement", d)
	}
	checkMinimum(t, h)
	for _, s := range c.Spans() {
		if s.Name != "repair" {
			continue
		}
		if v, _ := s.Arg("visited"); v < n {
			t.Fatalf("lockstep BFS visited %d vertices, want both sides (%d)", v, n)
		}
	}
}

// repairWork is the median over a sliding-window stream's batches of
// the repair work (lockstep-BFS vertices plus non-tree arcs scanned) on
// G(n, 6n).
func repairWork(t *testing.T, n int) int64 {
	t.Helper()
	const batch, batches = 100, 31
	base := gen.Random(n, 6*n, 21)
	stream := gen.SlidingWindowStream(base, batch*batches, 0, batch, 22)
	c := obs.NewCollector()
	h := newHandle(t, base, Options{Trace: c})
	for i, b := range stream.Batches {
		if _, err := h.ApplyEdges(b.Add, b.Del); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	spans := c.Spans()
	var work []int64
	for _, s := range spans {
		if s.Name != "apply-batch" {
			continue
		}
		w := int64(0)
		for _, r := range spans {
			if r.Parent == s.ID && r.Name == "repair" {
				v, _ := r.Arg("visited")
				sc, _ := r.Arg("scanned")
				w += v + sc
			}
		}
		work = append(work, w)
	}
	if len(work) != batches {
		t.Fatalf("%d apply-batch spans, want %d", len(work), batches)
	}
	slices.Sort(work)
	return work[len(work)/2]
}

// TestBatchWorkTracksBatchSize checks that a batch's repair work
// depends on the batch, not on n: 16 times the vertices at the same
// batch size may cost at most 4 times the median work, where a repair
// that touched whole trees would cost 16 times.
func TestBatchWorkTracksBatchSize(t *testing.T) {
	small, large := repairWork(t, 10_000), repairWork(t, 160_000)
	t.Logf("median repair work per batch: n=10k %d, n=160k %d", small, large)
	if small == 0 || large > 4*small {
		t.Fatalf("median repair work grew from %d to %d for 16x the vertices, want at most 4x", small, large)
	}
}
