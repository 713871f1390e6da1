package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pmsf"
)

// newTestServer boots a full server over httptest and tears it down.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.RatePerSecond == 0 {
		cfg.RatePerSecond = -1 // most tests don't want throttling
	}
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// graphText renders a random graph in the text on-disk format.
func graphText(t *testing.T, n, m int, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pmsf.WriteGraph(&buf, pmsf.RandomGraph(n, m, seed), pmsf.FormatText); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// do issues a request and decodes the JSON response into out (when
// non-nil), returning the status code.
func do(t *testing.T, method, url string, body []byte, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

func registerGraph(t *testing.T, ts *httptest.Server, name string, body []byte) GraphInfo {
	t.Helper()
	var info GraphInfo
	if code := do(t, "POST", ts.URL+"/v1/graphs/"+name+"?format=text", body, &info); code != http.StatusCreated {
		t.Fatalf("register %q: status %d", name, code)
	}
	return info
}

func postQuery(t *testing.T, ts *httptest.Server, req QueryRequest) (int, QueryResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var qr QueryResponse
	code := do(t, "POST", ts.URL+"/v1/queries", body, &qr)
	return code, qr
}

// serverCounters fetches the service counter snapshot via /v1/metrics —
// the externally observable path the acceptance criteria name.
func serverCounters(t *testing.T, ts *httptest.Server) map[string]int64 {
	t.Helper()
	return getMetrics(t, ts).Server.Counters
}

// processCounters fetches the engine-kernel half of /v1/metrics.
func processCounters(t *testing.T, ts *httptest.Server) map[string]int64 {
	t.Helper()
	return getMetrics(t, ts).Process.Counters
}

func getMetrics(t *testing.T, ts *httptest.Server) metricsResponse {
	t.Helper()
	var mr metricsResponse
	if code := do(t, "GET", ts.URL+"/v1/metrics", nil, &mr); code != http.StatusOK {
		t.Fatalf("/v1/metrics: status %d", code)
	}
	return mr
}

// TestServiceEndToEnd is the acceptance flow: register → query →
// cached re-query (observable via the /metrics cache-hit counter,
// without a second engine run) → eviction → independent verification.
func TestServiceEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 2})

	g := pmsf.RandomGraph(2000, 8000, 42)
	var buf bytes.Buffer
	if err := pmsf.WriteGraph(&buf, g, pmsf.FormatText); err != nil {
		t.Fatal(err)
	}
	info := registerGraph(t, ts, "demo", buf.Bytes())
	if info.N != 2000 || info.M != 8000 {
		t.Fatalf("registered info = %+v", info)
	}
	if info.Version == 0 {
		t.Error("registered graph has no version")
	}

	// First query: engine runs, cache misses.
	code, qr := postQuery(t, ts, QueryRequest{Graph: "demo", Algo: "Bor-EL", IncludeEdges: true})
	if code != http.StatusOK || qr.State != StateDone || qr.Result == nil {
		t.Fatalf("first query: %d %+v", code, qr)
	}
	if qr.Result.Cached {
		t.Error("first query claims to be cached")
	}
	// The service result must be a real MSF of the uploaded graph.
	forest := &pmsf.Forest{EdgeIDs: qr.Result.EdgeIDs, Weight: qr.Result.Weight, Components: qr.Result.Components}
	if err := pmsf.Verify(g, forest); err != nil {
		t.Fatalf("service forest fails verification: %v", err)
	}

	c := serverCounters(t, ts)
	if c["serve_engine_runs"] != 1 || c["serve_cache_hits"] != 0 {
		t.Fatalf("after first query: engine_runs=%d cache_hits=%d, want 1/0",
			c["serve_engine_runs"], c["serve_cache_hits"])
	}

	// Second identical query: served from the LRU cache, no engine run.
	code, qr2 := postQuery(t, ts, QueryRequest{Graph: "demo", Algo: "Bor-EL", IncludeEdges: true})
	if code != http.StatusOK || qr2.Result == nil || !qr2.Result.Cached {
		t.Fatalf("re-query not cached: %d %+v", code, qr2)
	}
	if qr2.Result.Weight != qr.Result.Weight {
		t.Error("cached weight differs from computed weight")
	}
	c = serverCounters(t, ts)
	if c["serve_engine_runs"] != 1 {
		t.Errorf("engine ran again for an identical query: runs=%d", c["serve_engine_runs"])
	}
	if c["serve_cache_hits"] != 1 {
		t.Errorf("cache_hits = %d, want 1", c["serve_cache_hits"])
	}

	// A semantically different query (other algorithm) is not a hit.
	code, qr3 := postQuery(t, ts, QueryRequest{Graph: "demo", Algo: "Kruskal"})
	if code != http.StatusOK || qr3.Result.Cached {
		t.Fatalf("different-algo query wrongly cached: %d %+v", code, qr3)
	}
	if d := qr3.Result.Weight - qr.Result.Weight; d > 1e-6 || d < -1e-6 {
		t.Errorf("engines disagree on MSF weight: %v vs %v", qr3.Result.Weight, qr.Result.Weight)
	}

	// Eviction: the cache holds 2; a third distinct result evicts the
	// oldest (the Bor-EL entry), so re-querying it runs the engine again.
	code, _ = postQuery(t, ts, QueryRequest{Graph: "demo", Kind: "components"})
	if code != http.StatusOK {
		t.Fatalf("components query: %d", code)
	}
	c = serverCounters(t, ts)
	if c["serve_cache_evictions"] < 1 {
		t.Fatalf("no eviction after 3 distinct results in a 2-entry cache: %v", c)
	}
	runsBefore := c["serve_engine_runs"]
	code, qr4 := postQuery(t, ts, QueryRequest{Graph: "demo", Algo: "Bor-EL", IncludeEdges: true})
	if code != http.StatusOK || qr4.Result.Cached {
		t.Fatalf("evicted entry still served from cache: %d %+v", code, qr4)
	}
	if c := serverCounters(t, ts); c["serve_engine_runs"] != runsBefore+1 {
		t.Errorf("engine_runs = %d, want %d (recompute after eviction)", c["serve_engine_runs"], runsBefore+1)
	}
}

// TestProcessCountersLive checks that the kernel counters in the
// process half of /v1/metrics count inside the daemon with no switch:
// an uncached query advances the team-phase and sort counters, and a
// PATCH of k edges advances dyn_applied_edges by exactly k.
func TestProcessCountersLive(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	g := pmsf.RandomGraph(3000, 12000, 5)
	var buf bytes.Buffer
	if err := pmsf.WriteGraph(&buf, g, pmsf.FormatText); err != nil {
		t.Fatal(err)
	}
	registerGraph(t, ts, "live", buf.Bytes())

	before := processCounters(t, ts)
	code, qr := postQuery(t, ts, QueryRequest{Graph: "live"})
	if code != http.StatusOK || qr.Result == nil || qr.Result.Cached {
		t.Fatalf("uncached query: status %d, %+v", code, qr)
	}
	after := processCounters(t, ts)
	for _, name := range []string{"par_phases", "sort_elements"} {
		if after[name] <= before[name] {
			t.Errorf("%s stayed at %d across an uncached query", name, after[name])
		}
	}

	victim := g.Edges[7]
	patch := PatchRequest{
		Add: []PatchEdge{{U: 1, V: 2, W: -5}, {U: 3, V: 4, W: -7}},
		Del: []PatchEdge{{U: victim.U, V: victim.V, W: victim.W}},
	}
	const k = 3
	before = after
	if code, pr := doPatch(t, ts, "live", patch); code != http.StatusOK {
		t.Fatalf("patch: status %d, %+v", code, pr)
	}
	after = processCounters(t, ts)
	if got := after["dyn_applied_edges"] - before["dyn_applied_edges"]; got != k {
		t.Errorf("dyn_applied_edges grew by %d across a PATCH of %d edges, want %d", got, k, k)
	}
}

func TestServiceComponentsQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// Two disjoint cliques → exactly 2 components.
	g := pmsf.NewGraph(6, []pmsf.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 3},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 2},
	})
	var buf bytes.Buffer
	if err := pmsf.WriteGraph(&buf, g, pmsf.FormatText); err != nil {
		t.Fatal(err)
	}
	registerGraph(t, ts, "two-comps", buf.Bytes())

	code, qr := postQuery(t, ts, QueryRequest{Graph: "two-comps", Kind: "components", IncludeLabels: true})
	if code != http.StatusOK || qr.Result == nil {
		t.Fatalf("components query: %d %+v", code, qr)
	}
	if qr.Result.Components != 2 {
		t.Errorf("components = %d, want 2", qr.Result.Components)
	}
	if len(qr.Result.Labels) != 6 || qr.Result.Labels[0] != qr.Result.Labels[2] ||
		qr.Result.Labels[0] == qr.Result.Labels[3] {
		t.Errorf("labels = %v", qr.Result.Labels)
	}
}

func TestServiceAsyncJobAndSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	registerGraph(t, ts, "g", graphText(t, 3000, 12000, 5))

	code, qr := postQuery(t, ts, QueryRequest{Graph: "g", Algo: "Bor-FAL", Async: true})
	if code != http.StatusAccepted || qr.JobID == "" {
		t.Fatalf("async submit: %d %+v", code, qr)
	}

	// SSE stream: must deliver the recorded lifecycle and end on a
	// terminal event.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + qr.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body) // server closes the stream on terminal state
	if err != nil {
		t.Fatal(err)
	}
	stream := string(raw)
	for _, want := range []string{"event: queued", "event: done"} {
		if !strings.Contains(stream, want) {
			t.Errorf("SSE stream missing %q:\n%s", want, stream)
		}
	}

	// Poll surface agrees.
	var st Status
	if code := do(t, "GET", ts.URL+"/v1/jobs/"+qr.JobID, nil, &st); code != http.StatusOK {
		t.Fatalf("job poll: %d", code)
	}
	if st.State != StateDone || st.Result == nil || st.Result.ForestSize == 0 {
		t.Errorf("job status = %+v", st)
	}
}

func TestServiceGraphLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerGraph(t, ts, "a", graphText(t, 100, 300, 1))
	registerGraph(t, ts, "b", graphText(t, 100, 300, 2))
	for _, name := range []string{"a", "b"} {
		if code, _ := postQuery(t, ts, QueryRequest{Graph: name, IncludeEdges: true}); code != http.StatusOK {
			t.Fatalf("query %s: %d", name, code)
		}
	}

	var list struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	if code := do(t, "GET", ts.URL+"/v1/graphs", nil, &list); code != http.StatusOK || len(list.Graphs) != 2 {
		t.Fatalf("list: %d %+v", code, list)
	}
	if code := do(t, "DELETE", ts.URL+"/v1/graphs/a", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	// DELETE frees the removed graph's cached results; b's stays.
	if got := serverCounters(t, ts)["serve_cache_invalidations"]; got != 1 {
		t.Errorf("cache invalidations after delete = %d, want 1", got)
	}
	if got := s.cache.Len(); got != 1 {
		t.Errorf("cache holds %d entries after delete, want 1 (b's)", got)
	}
	if code, _ := postQuery(t, ts, QueryRequest{Graph: "a"}); code != http.StatusNotFound {
		t.Errorf("query deleted graph: %d, want 404", code)
	}
	if code := do(t, "GET", ts.URL+"/v1/graphs/a", nil, nil); code != http.StatusNotFound {
		t.Errorf("get deleted graph: %d, want 404", code)
	}
}

// TestReRegisteredGraphMissesLateResult: a query still running on a
// graph when it is deleted finishes after the name is registered again
// with other content. Its result must not stay in the cache, and the new
// graph's query must run an engine on the new content.
func TestReRegisteredGraphMissesLateResult(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	registerGraph(t, ts, "g", graphText(t, 300, 1200, 1))

	started := make(chan struct{})
	release := make(chan struct{})
	var gate sync.Once
	orig := s.queue.exec
	s.queue.exec = func(j *Job) (*Result, error) {
		gate.Do(func() {
			close(started)
			<-release
		})
		return orig(j)
	}

	code, qr := postQuery(t, ts, QueryRequest{Graph: "g", Algo: "Kruskal", Async: true})
	if code != http.StatusAccepted {
		t.Fatalf("async query: %d %+v", code, qr)
	}
	<-started
	if code := do(t, "DELETE", ts.URL+"/v1/graphs/g", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	registerGraph(t, ts, "g", graphText(t, 200, 900, 2))
	close(release)
	job, err := s.queue.Get(qr.JobID)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if res, err := job.Outcome(); err != nil || res.N != 300 {
		t.Fatalf("late query on the deleted graph: %+v, %v", res, err)
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("late result on the deleted graph was cached: %d entries, want 0", n)
	}

	runs := serverCounters(t, ts)["serve_engine_runs"]
	code, qr = postQuery(t, ts, QueryRequest{Graph: "g", Algo: "Kruskal"})
	if code != http.StatusOK || qr.Result == nil {
		t.Fatalf("query after re-register: %d %+v", code, qr)
	}
	if qr.Result.Cached || qr.Result.N != 200 || qr.Result.M != 900 {
		t.Errorf("re-registered graph answered cached=%v n=%d m=%d, want an engine run on n=200 m=900",
			qr.Result.Cached, qr.Result.N, qr.Result.M)
	}
	if got := serverCounters(t, ts)["serve_engine_runs"]; got != runs+1 {
		t.Errorf("engine runs %d, want %d", got, runs+1)
	}
}

// TestDefaultEngineIsBorCAS: a query that names no engine runs Bor-CAS,
// and a graph's first PATCH, which seeds the dynamic handle with the
// same engine, returns the minimum spanning forest of the patched graph.
func TestDefaultEngineIsBorCAS(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	g := pmsf.RandomGraph(600, 2400, 5)
	var buf bytes.Buffer
	if err := pmsf.WriteGraph(&buf, g, pmsf.FormatText); err != nil {
		t.Fatal(err)
	}
	registerGraph(t, ts, "g", buf.Bytes())

	code, qr := postQuery(t, ts, QueryRequest{Graph: "g", Workers: 2})
	if code != http.StatusOK || qr.Result == nil {
		t.Fatalf("default query: %d %+v", code, qr)
	}
	if qr.Result.Algorithm != "Bor-CAS" {
		t.Errorf("default query ran %q, want \"Bor-CAS\"", qr.Result.Algorithm)
	}

	// Delete two tree edges of the current forest, so the seeded handle
	// must repair, and add two edges.
	ref, _, err := pmsf.MinimumSpanningForest(g, pmsf.SeqKruskal, pmsf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gone := map[int32]bool{ref.EdgeIDs[0]: true, ref.EdgeIDs[len(ref.EdgeIDs)/2]: true}
	patch := PatchRequest{Add: []PatchEdge{{U: 10, V: 20, W: 0.5}, {U: 30, V: 40, W: -1}}}
	patched := &pmsf.Graph{N: g.N}
	for i, e := range g.Edges {
		if gone[int32(i)] {
			patch.Del = append(patch.Del, PatchEdge{U: e.U, V: e.V, W: e.W})
			continue
		}
		patched.Edges = append(patched.Edges, e)
	}
	for _, e := range patch.Add {
		patched.Edges = append(patched.Edges, pmsf.Edge{U: e.U, V: e.V, W: e.W})
	}
	code, pr := doPatch(t, ts, "g", patch)
	if code != http.StatusOK {
		t.Fatalf("first patch: status %d", code)
	}
	want, _, err := pmsf.MinimumSpanningForest(patched, pmsf.SeqKruskal, pmsf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Delta.ForestSize != want.Size() || pr.Delta.Components != want.Components ||
		math.Abs(pr.Delta.Weight-want.Weight) > 1e-9*math.Max(1, math.Abs(want.Weight)) {
		t.Errorf("first patch delta size %d, components %d, weight %v; SeqKruskal %d, %d, %v",
			pr.Delta.ForestSize, pr.Delta.Components, pr.Delta.Weight, want.Size(), want.Components, want.Weight)
	}
}

// TestCacheKeyIgnoresUnreadOptions: an option the chosen engine does not
// read does not split the cache, and one it does read still does.
func TestCacheKeyIgnoresUnreadOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	registerGraph(t, ts, "g", graphText(t, 300, 1200, 4))

	for _, c := range []struct {
		first, second QueryRequest
		cached        bool
	}{
		{QueryRequest{Graph: "g", BaseSize: 64}, QueryRequest{Graph: "g"}, true},
		{QueryRequest{Graph: "g", Algo: "Bor-CAS", SortEngine: "sample-sort", Seed: 7}, QueryRequest{Graph: "g", Seed: 7}, true},
		{QueryRequest{Graph: "g", Algo: "MST-BC", BaseSize: 64}, QueryRequest{Graph: "g", Algo: "MST-BC"}, false},
		{QueryRequest{Graph: "g", Algo: "Bor-EL", SortEngine: "sample-sort"}, QueryRequest{Graph: "g", Algo: "Bor-EL"}, false},
	} {
		if code, qr := postQuery(t, ts, c.first); code != http.StatusOK || qr.Result == nil {
			t.Fatalf("%+v: %d %+v", c.first, code, qr)
		}
		code, qr := postQuery(t, ts, c.second)
		if code != http.StatusOK || qr.Result == nil {
			t.Fatalf("%+v: %d %+v", c.second, code, qr)
		}
		if qr.Result.Cached != c.cached {
			t.Errorf("%+v after %+v: cached %v, want %v", c.second, c.first, qr.Result.Cached, c.cached)
		}
	}
}

// TestServiceShutdownDrain is the SIGTERM acceptance path, driven
// through Server.Shutdown (what the daemon's signal handler calls): an
// in-flight synchronous query still returns its result, while new
// admissions are rejected with 503.
func TestServiceShutdownDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, DrainTimeout: 30 * time.Second})
	registerGraph(t, ts, "g", graphText(t, 500, 1500, 3))

	// Gate the engine so the query is reliably in flight when Shutdown
	// begins.
	started := make(chan struct{})
	release := make(chan struct{})
	orig := s.queue.exec
	s.queue.exec = func(j *Job) (*Result, error) {
		close(started)
		<-release
		return orig(j)
	}

	var wg sync.WaitGroup
	var code int
	var qr QueryResponse
	wg.Add(1)
	go func() {
		defer wg.Done()
		code, qr = postQuery(t, ts, QueryRequest{Graph: "g", Algo: "MST-BC"})
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()

	// New admissions must be refused while draining. Shutdown flips the
	// flag before it blocks on the drain, but poll briefly to avoid
	// racing the goroutine's first instruction.
	deadline := time.After(5 * time.Second)
	for {
		if s.Draining() {
			break
		}
		select {
		case <-deadline:
			t.Fatal("server never started draining")
		case <-time.After(time.Millisecond):
		}
	}
	if rcode, _ := postQuery(t, ts, QueryRequest{Graph: "g", Algo: "Kruskal"}); rcode != http.StatusServiceUnavailable {
		t.Errorf("query during drain: %d, want 503", rcode)
	}
	if rcode := do(t, "POST", ts.URL+"/v1/graphs/late?format=text", graphText(t, 10, 20, 9), nil); rcode != http.StatusServiceUnavailable {
		t.Errorf("upload during drain: %d, want 503", rcode)
	}

	// Let the in-flight run finish: its client still gets the forest.
	close(release)
	wg.Wait()
	if code != http.StatusOK || qr.Result == nil || qr.State != StateDone {
		t.Fatalf("in-flight query during shutdown: %d %+v", code, qr)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Status surface reports draining.
	var st statusResponse
	if code := do(t, "GET", ts.URL+"/v1/status", nil, &st); code != http.StatusOK || !st.Draining {
		t.Errorf("status after shutdown: %d %+v", code, st)
	}
}
