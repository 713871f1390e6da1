package dynmsf

import (
	"strings"
	"testing"

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
		weight:     h.weight,
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
	// A tiny cutoff forces the scoped recompute for any intra-tree batch.
	h := newHandle(t, pathGraph(10), Options{CutoffFrac: 0.01})
	add := []graph.Edge{
		{U: 0, V: 5, W: 0.5}, {U: 2, V: 8, W: 0.25}, {U: 1, V: 9, W: 50},
	}
	d, err := h.ApplyEdges(add, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.FallbackRecomputes != 1 {
		t.Fatalf("delta = %+v, want exactly one scoped recompute", d)
	}
	checkMinimum(t, h)
}

func TestRebuildLimitEscalatesToRecompute(t *testing.T) {
	// Chain of improving inserts on one tree: each swap dirties the tree,
	// so with RebuildLimit 1 the batch must escalate after two rebuilds.
	h := newHandle(t, pathGraph(12), Options{RebuildLimit: 1})
	add := []graph.Edge{
		{U: 0, V: 11, W: 0.9}, {U: 1, V: 10, W: 0.8}, {U: 2, V: 9, W: 0.7},
		{U: 3, V: 8, W: 0.6}, {U: 4, V: 7, W: 0.5},
	}
	d, err := h.ApplyEdges(add, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.FallbackRecomputes == 0 {
		t.Fatalf("delta = %+v, want the rebuild limit to force a recompute", d)
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
	obs.EnableMetrics(true)
	defer obs.EnableMetrics(false)
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
