package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"pmsf"
)

func doPatch(t *testing.T, ts *httptest.Server, name string, req PatchRequest) (int, PatchResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var pr PatchResponse
	code := do(t, "PATCH", ts.URL+"/v1/graphs/"+name+"/edges", body, &pr)
	return code, pr
}

// scratchWeight recomputes the MSF weight of g from scratch — the
// independent oracle for dynamic answers.
func scratchWeight(t *testing.T, g *pmsf.Graph) float64 {
	t.Helper()
	f, _, err := pmsf.MinimumSpanningForest(g, pmsf.SeqKruskal, pmsf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return f.Weight
}

// TestPatchEndToEnd is the dynamic-update acceptance flow: register →
// query (cached) → PATCH → the cached result is invalidated and the
// re-query is answered from the maintained forest (algorithm
// "dynamic", serve_dyn_answers counter, no extra engine run), with the
// weight matching a from-scratch recompute on the mutated graph.
func TestPatchEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	g := pmsf.RandomGraph(500, 2000, 7)
	var buf bytes.Buffer
	if err := pmsf.WriteGraph(&buf, g, pmsf.FormatText); err != nil {
		t.Fatal(err)
	}
	info := registerGraph(t, ts, "dyn", buf.Bytes())

	// Warm the cache with an engine-run MSF query.
	code, qr := postQuery(t, ts, QueryRequest{Graph: "dyn"})
	if code != http.StatusOK || qr.Result == nil {
		t.Fatalf("initial query: status %d, %+v", code, qr)
	}
	preWeight := qr.Result.Weight

	// A lease taken before the patch must keep the pre-patch snapshot.
	lease, err := s.registry.Acquire("dyn")
	if err != nil {
		t.Fatal(err)
	}

	// Mutate: delete a live edge by value, add two fresh light edges.
	victim := g.Edges[3]
	patch := PatchRequest{
		Add: []PatchEdge{{U: 1, V: 2, W: -5}, {U: 3, V: 4, W: -7}},
		Del: []PatchEdge{{U: victim.U, V: victim.V, W: victim.W}},
	}
	code, pr := doPatch(t, ts, "dyn", patch)
	if code != http.StatusOK {
		t.Fatalf("patch: status %d", code)
	}
	if pr.Delta.Added != 2 || pr.Delta.Deleted != 1 {
		t.Fatalf("delta = %+v", pr.Delta)
	}
	if pr.Graph.M != len(g.Edges)+1 {
		t.Errorf("post-patch m = %d, want %d", pr.Graph.M, len(g.Edges)+1)
	}
	if pr.Graph.Version <= info.Version {
		t.Errorf("version %d after patch, want > %d", pr.Graph.Version, info.Version)
	}
	if pr.Invalidated < 1 {
		t.Errorf("invalidated %d cache entries, want >= 1", pr.Invalidated)
	}

	// The pre-patch lease still sees the old immutable snapshot.
	if len(lease.Graph.Edges) != len(g.Edges) || lease.Forest != nil {
		t.Error("pre-patch lease was mutated by the patch")
	}
	lease.Release()

	// Build the expected mutated graph and recompute from scratch.
	want := &pmsf.Graph{N: g.N}
	for i, e := range g.Edges {
		if i == 3 {
			continue
		}
		want.Edges = append(want.Edges, e)
	}
	want.Edges = append(want.Edges,
		pmsf.Edge{U: 1, V: 2, W: -5}, pmsf.Edge{U: 3, V: 4, W: -7})
	wantWeight := scratchWeight(t, want)
	if math.Abs(pr.Delta.Weight-wantWeight) > 1e-9*math.Max(1, math.Abs(wantWeight)) {
		t.Errorf("delta weight %v, want %v", pr.Delta.Weight, wantWeight)
	}

	runsBefore := serverCounters(t, ts)["serve_engine_runs"]

	// Re-query: must NOT serve the stale cached result, must be
	// answered from the maintained forest without an engine run.
	code, qr = postQuery(t, ts, QueryRequest{Graph: "dyn", IncludeEdges: true})
	if code != http.StatusOK || qr.Result == nil {
		t.Fatalf("re-query: status %d", code)
	}
	if qr.Result.Cached {
		t.Error("re-query after patch served a cached (stale) result")
	}
	if qr.Result.Algorithm != "dynamic" {
		t.Errorf("re-query algorithm %q, want \"dynamic\"", qr.Result.Algorithm)
	}
	if math.Abs(qr.Result.Weight-wantWeight) > 1e-9*math.Max(1, math.Abs(wantWeight)) {
		t.Errorf("re-query weight %v, want %v (pre-patch was %v)",
			qr.Result.Weight, wantWeight, preWeight)
	}
	if len(qr.Result.EdgeIDs) != qr.Result.ForestSize {
		t.Errorf("edge ids %d, forest size %d", len(qr.Result.EdgeIDs), qr.Result.ForestSize)
	}

	c := serverCounters(t, ts)
	if c["serve_engine_runs"] != runsBefore {
		t.Errorf("engine runs went %d -> %d; dynamic answer should not run an engine",
			runsBefore, c["serve_engine_runs"])
	}
	if c["serve_dyn_answers"] < 1 {
		t.Errorf("serve_dyn_answers = %d, want >= 1", c["serve_dyn_answers"])
	}
	if c["serve_patches"] != 1 || c["serve_patched_edges"] != 3 {
		t.Errorf("patch counters = %d/%d, want 1/3", c["serve_patches"], c["serve_patched_edges"])
	}
	if c["serve_cache_invalidations"] < 1 {
		t.Errorf("serve_cache_invalidations = %d, want >= 1", c["serve_cache_invalidations"])
	}

	// A second patch reuses the maintained handle (no reseed) and keeps
	// answering correctly.
	code, pr = doPatch(t, ts, "dyn", PatchRequest{
		Del: []PatchEdge{{U: 1, V: 2, W: -5}},
	})
	if code != http.StatusOK {
		t.Fatalf("second patch: status %d", code)
	}
	want.Edges = want.Edges[:len(want.Edges)-2]
	want.Edges = append(want.Edges, pmsf.Edge{U: 3, V: 4, W: -7})
	wantWeight = scratchWeight(t, want)
	if math.Abs(pr.Delta.Weight-wantWeight) > 1e-9*math.Max(1, math.Abs(wantWeight)) {
		t.Errorf("second delta weight %v, want %v", pr.Delta.Weight, wantWeight)
	}
}

func TestPatchErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	registerGraph(t, ts, "g", graphText(t, 50, 120, 3))

	// Unknown graph.
	if code, _ := doPatch(t, ts, "nope", PatchRequest{Add: []PatchEdge{{U: 0, V: 1, W: 1}}}); code != http.StatusNotFound {
		t.Errorf("unknown graph: status %d, want 404", code)
	}
	// Malformed body.
	if code := do(t, "PATCH", ts.URL+"/v1/graphs/g/edges", []byte("{nope"), nil); code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", code)
	}
	// Out-of-range endpoint.
	if code, _ := doPatch(t, ts, "g", PatchRequest{Add: []PatchEdge{{U: 0, V: 999, W: 1}}}); code != http.StatusBadRequest {
		t.Errorf("out-of-range add: status %d, want 400", code)
	}
	// Deleting an edge that does not exist.
	if code, _ := doPatch(t, ts, "g", PatchRequest{Del: []PatchEdge{{U: 0, V: 1, W: 1234.5}}}); code != http.StatusBadRequest {
		t.Errorf("missing deletion: status %d, want 400", code)
	}
	// Failed patches must leave the graph queryable and unchanged.
	code, qr := postQuery(t, ts, QueryRequest{Graph: "g"})
	if code != http.StatusOK || qr.Result == nil || qr.Result.M != 120 {
		t.Fatalf("query after failed patches: status %d, %+v", code, qr.Result)
	}
	if qr.Result.Algorithm == "dynamic" {
		t.Error("failed patches must not publish a dynamic forest")
	}
}

// TestPatchSwapsOutInfiniteEdge patches a graph whose only path to
// vertex 0 is an infinite-weight edge: the added edge swaps it out, and
// the response must decode with the finite forest weight.
func TestPatchSwapsOutInfiniteEdge(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	registerGraph(t, ts, "inf", []byte("3 2\n0 1 +Inf\n1 2 1\n"))
	code, pr := doPatch(t, ts, "inf", PatchRequest{Add: []PatchEdge{{U: 0, V: 2, W: 0.5}}})
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if pr.Delta.Swaps != 1 || pr.Delta.Weight != 1.5 || pr.Delta.ForestSize != 2 {
		t.Fatalf("delta = %+v, want one swap down to weight 1.5", pr.Delta)
	}
}

func TestPatchBodyTooLarge413(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxUploadBytes: 300})

	g := &pmsf.Graph{N: 4, Edges: []pmsf.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}}}
	var buf bytes.Buffer
	if err := pmsf.WriteGraph(&buf, g, pmsf.FormatText); err != nil {
		t.Fatal(err)
	}
	registerGraph(t, ts, "tiny", buf.Bytes())

	big := PatchRequest{}
	for i := 0; i < 64; i++ {
		big.Add = append(big.Add, PatchEdge{U: 0, V: 1, W: float64(i)})
	}
	if code, _ := doPatch(t, ts, "tiny", big); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized patch: status %d, want 413", code)
	}
}

func TestPatchRegistryCap507(t *testing.T) {
	g := pmsf.RandomGraph(50, 120, 5)
	cap := GraphBytes(g) + 100 // room for the graph, not for 10 more edges
	_, ts := newTestServer(t, Config{Workers: 1, RegistryCapBytes: cap})

	var buf bytes.Buffer
	if err := pmsf.WriteGraph(&buf, g, pmsf.FormatText); err != nil {
		t.Fatal(err)
	}
	registerGraph(t, ts, "full", buf.Bytes())

	big := PatchRequest{}
	for i := 0; i < 10; i++ {
		big.Add = append(big.Add, PatchEdge{U: 0, V: 1, W: float64(i)})
	}
	if code, _ := doPatch(t, ts, "full", big); code != http.StatusInsufficientStorage {
		t.Errorf("cap-busting patch: status %d, want 507", code)
	}
	// A small patch still fits.
	if code, _ := doPatch(t, ts, "full", PatchRequest{Add: []PatchEdge{{U: 0, V: 1, W: 9}}}); code != http.StatusOK {
		t.Errorf("small patch under cap: status %d, want 200", code)
	}
}

func TestPatchConflict409(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	registerGraph(t, ts, "g", graphText(t, 50, 120, 3))

	guard, err := s.registry.BeginPatch("g", 0)
	if err != nil {
		t.Fatal(err)
	}
	code, _ := doPatch(t, ts, "g", PatchRequest{Add: []PatchEdge{{U: 0, V: 1, W: 1}}})
	guard.Abort()
	if code != http.StatusConflict {
		t.Errorf("concurrent patch: status %d, want 409", code)
	}
	// After the in-flight patch is released, patching works again.
	if code, _ := doPatch(t, ts, "g", PatchRequest{Add: []PatchEdge{{U: 0, V: 1, W: 1}}}); code != http.StatusOK {
		t.Errorf("patch after release: status %d, want 200", code)
	}
}

// TestPatchGuardRegistryFlow drives the registry-level guard API
// directly: cap accounting on commit, removal deferred past an
// in-flight patch, and Reset discarding a poisoned handle.
func TestPatchGuardRegistryFlow(t *testing.T) {
	r := NewRegistry(0, nil)
	g := pmsf.RandomGraph(30, 60, 1)
	if _, err := r.Register("g", g); err != nil {
		t.Fatal(err)
	}
	before := r.Bytes()

	guard, err := r.BeginPatch("g", 24)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.BeginPatch("g", 0); err == nil {
		t.Fatal("second BeginPatch succeeded while first is held")
	}
	dyn, err := pmsf.NewDynamic(guard.Graph, pmsf.SeqKruskal, pmsf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dyn.ApplyEdges([]pmsf.Edge{{U: 0, V: 1, W: 0.5}}, nil); err != nil {
		t.Fatal(err)
	}
	newG, f := dyn.SnapshotWithForest()
	info := guard.Commit(newG, f, dyn)
	if info.M != 61 {
		t.Fatalf("committed m = %d, want 61", info.M)
	}
	if got, want := r.Bytes(), before+24; got != want {
		t.Errorf("registry bytes %d after commit, want %d", got, want)
	}

	// A lease taken now carries the maintained forest.
	lease, err := r.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	if lease.Forest == nil || lease.Forest.Size() != f.Size() {
		t.Error("post-commit lease does not carry the maintained forest")
	}

	// Remove while a patch is in flight: entry must stay resident until
	// both the lease and the guard are released.
	guard2, err := r.BeginPatch("g", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("g"); err != nil {
		t.Fatal(err)
	}
	if r.Bytes() == 0 {
		t.Fatal("bytes freed while patch and lease still pin the entry")
	}
	guard2.Reset() // poisoned-handle path: releases the pin, drops dyn
	lease.Release()
	if r.Bytes() != 0 {
		t.Errorf("registry bytes %d after last release of removed graph, want 0", r.Bytes())
	}
}

// TestLatePutMissesAfterCommit: a job that leased the graph before a
// patch commits fills the cache under its pre-commit key after the
// patch dropped the graph's entries. A query made after the commit
// must not be answered from that entry.
func TestLatePutMissesAfterCommit(t *testing.T) {
	r := NewRegistry(0, nil)
	c := NewCache(8, nil)
	if _, err := r.Register("g", pmsf.RandomGraph(30, 60, 2)); err != nil {
		t.Fatal(err)
	}
	query := CacheKey{Kind: KindMSF, Algo: pmsf.MSTBC}
	keyOf := func(l *Lease) CacheKey {
		k := query
		k.Name, k.Version = l.Name, l.Version
		return k
	}

	pre, err := r.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	guard, err := r.BeginPatch("g", 24)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := pmsf.NewDynamic(guard.Graph, pmsf.SeqKruskal, pmsf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dyn.ApplyEdges([]pmsf.Edge{{U: 0, V: 1, W: -1}}, nil); err != nil {
		t.Fatal(err)
	}
	newG, f := dyn.SnapshotWithForest()
	info := guard.Commit(newG, f, dyn)
	c.DropGraph("g")
	c.Put(keyOf(pre), &Result{Graph: "g", M: len(pre.Graph.Edges)})
	pre.Release()

	post, err := r.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer post.Release()
	if res, ok := c.Get(keyOf(post)); ok {
		t.Errorf("post-commit query hit the pre-commit result (m=%d)", res.M)
	}
	if post.Version != info.Version {
		t.Errorf("post-commit lease version %d, commit reported %d", post.Version, info.Version)
	}
}

func TestCacheDropGraph(t *testing.T) {
	m := NewMetrics()
	c := NewCache(8, m)
	put := func(name string, q uint64) {
		c.Put(CacheKey{Name: name, Version: 1, Seed: q}, &Result{Kind: KindMSF})
	}
	put("a", 10)
	put("a", 11)
	put("b", 10)
	if n := c.DropGraph("a"); n != 2 {
		t.Fatalf("DropGraph(a) = %d, want 2", n)
	}
	if _, ok := c.Get(CacheKey{Name: "b", Version: 1, Seed: 10}); !ok {
		t.Error("DropGraph removed an entry of a different graph with equal content")
	}
	if _, ok := c.Get(CacheKey{Name: "a", Version: 1, Seed: 10}); ok {
		t.Error("dropped entry still served")
	}
	if got := m.CacheInvalidations.Value(); got != 2 {
		t.Errorf("invalidation counter = %d, want 2", got)
	}
	if n := c.DropGraph("missing"); n != 0 {
		t.Errorf("DropGraph(missing) = %d, want 0", n)
	}
}

// TestCacheSeparatesEqualContentGraphs registers one body under two
// names: each name's query runs its own engine and reports its own
// name, and patching one graph invalidates only that graph's entries.
func TestCacheSeparatesEqualContentGraphs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := graphText(t, 300, 1200, 5)
	registerGraph(t, ts, "a", body)
	registerGraph(t, ts, "b", body)

	for _, name := range []string{"a", "b"} {
		code, qr := postQuery(t, ts, QueryRequest{Graph: name, Algo: "Kruskal"})
		if code != http.StatusOK || qr.Result == nil {
			t.Fatalf("query %s: %d %+v", name, code, qr)
		}
		if qr.Result.Graph != name || qr.Result.Cached {
			t.Errorf("query %s answered graph=%q cached=%v, want its own uncached result",
				name, qr.Result.Graph, qr.Result.Cached)
		}
	}

	code, pr := doPatch(t, ts, "b", PatchRequest{Add: []PatchEdge{{U: 0, V: 1, W: 0.5}}})
	if code != http.StatusOK {
		t.Fatalf("patch b: status %d", code)
	}
	if pr.Invalidated != 1 {
		t.Errorf("patch b invalidated %d cache entries, want 1 (b's own)", pr.Invalidated)
	}
	code, qr := postQuery(t, ts, QueryRequest{Graph: "a", Algo: "Kruskal"})
	if code != http.StatusOK || qr.Result == nil || !qr.Result.Cached || qr.Result.Graph != "a" {
		t.Errorf("a after patching b: %d %+v, want a's cached result", code, qr.Result)
	}
}

// TestFinishedJobReleasesSnapshot pins that a finished job kept in the
// history does not hold its graph snapshot: once a PATCH replaces the
// graph, the pre-patch *pmsf.Graph a completed query ran on must be
// collectable.
func TestFinishedJobReleasesSnapshot(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	collected := make(chan struct{})
	func() {
		g := pmsf.RandomGraph(200, 800, 3)
		runtime.SetFinalizer(g, func(*pmsf.Graph) { close(collected) })
		if _, err := s.registry.Register("g", g); err != nil {
			t.Fatal(err)
		}
	}()

	code, qr := postQuery(t, ts, QueryRequest{Graph: "g"})
	if code != http.StatusOK || qr.Result == nil {
		t.Fatalf("query: status %d, %+v", code, qr)
	}
	if code, _ := doPatch(t, ts, "g", PatchRequest{Add: []PatchEdge{{U: 0, V: 1, W: -1}}}); code != http.StatusOK {
		t.Fatalf("patch: status %d", code)
	}
	if j, err := s.queue.Get(qr.JobID); err != nil || j.State() != StateDone {
		t.Fatalf("finished job %q not in the history: %v", qr.JobID, err)
	}

	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("pre-patch graph is still reachable after its query finished")
}

// TestPatchedQueryBypassesQueue: with the single queue worker held
// inside a job and the backlog full, an MSF query on a patched graph is
// still answered from the maintained forest, synchronously and without
// a job id even when async, and without touching the cache.
func TestPatchedQueryBypassesQueue(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	registerGraph(t, ts, "busy", graphText(t, 100, 300, 1))
	registerGraph(t, ts, "dyn", graphText(t, 200, 800, 2))
	add := PatchEdge{U: 1, V: 2, W: -1}
	if code, _ := doPatch(t, ts, "dyn", PatchRequest{Add: []PatchEdge{add}}); code != http.StatusOK {
		t.Fatalf("patch: status %d", code)
	}
	want := pmsf.RandomGraph(200, 800, 2)
	want.Edges = append(want.Edges, pmsf.Edge{U: add.U, V: add.V, W: add.W})
	wantWeight := scratchWeight(t, want)

	started := make(chan struct{}, 2)
	release := make(chan struct{})
	orig := s.queue.exec
	s.queue.exec = func(j *Job) (*Result, error) {
		started <- struct{}{}
		<-release
		return orig(j)
	}
	defer close(release)
	// Job 1 holds the worker, job 2 fills the backlog.
	if code, qr := postQuery(t, ts, QueryRequest{Graph: "busy", Async: true}); code != http.StatusAccepted {
		t.Fatalf("first async: %d %+v", code, qr)
	}
	<-started
	if code, _ := postQuery(t, ts, QueryRequest{Graph: "busy", Seed: 1, Async: true}); code != http.StatusAccepted {
		t.Fatalf("second async: %d", code)
	}

	before := serverCounters(t, ts)
	for _, async := range []bool{false, true} {
		code, qr := postQuery(t, ts, QueryRequest{Graph: "dyn", Async: async, IncludeEdges: true})
		if code != http.StatusOK || qr.Result == nil {
			t.Fatalf("async=%v: status %d, %+v", async, code, qr)
		}
		if qr.JobID != "" || qr.State != StateDone {
			t.Errorf("async=%v: job %q state %q, want no job and done", async, qr.JobID, qr.State)
		}
		r := qr.Result
		if r.Algorithm != "dynamic" || r.Cached || r.N != 200 || r.M != 801 {
			t.Errorf("async=%v: algorithm %q cached %v n %d m %d, want dynamic, uncached, 200, 801",
				async, r.Algorithm, r.Cached, r.N, r.M)
		}
		if math.Abs(r.Weight-wantWeight) > 1e-9*math.Max(1, math.Abs(wantWeight)) || len(r.EdgeIDs) != r.ForestSize {
			t.Errorf("async=%v: weight %v with %d edge ids for forest size %d, want %v",
				async, r.Weight, len(r.EdgeIDs), r.ForestSize, wantWeight)
		}
	}
	after := serverCounters(t, ts)
	for _, name := range []string{"serve_jobs_submitted", "serve_jobs_rejected", "serve_cache_hits", "serve_cache_misses", "serve_engine_runs"} {
		if after[name] != before[name] {
			t.Errorf("%s went %d -> %d; a dynamic answer takes no job and no cache lookup", name, before[name], after[name])
		}
	}
	if got := after["serve_dyn_answers"] - before["serve_dyn_answers"]; got != 2 {
		t.Errorf("serve_dyn_answers grew by %d, want 2", got)
	}
	if info, err := s.registry.Get("dyn"); err != nil || info.Refs != 0 {
		t.Errorf("dyn refs = %+v, %v; want 0 after the answers", info, err)
	}
}
