package serve

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// TestServiceConcurrencyBound is the admission-control acceptance
// criterion: with K=2 workers, a burst of 8 concurrent queries never
// runs more than 2 engines simultaneously. The bound is asserted via
// the serve_jobs_running_peak gauge exposed on /v1/metrics.
func TestServiceConcurrencyBound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16, CacheEntries: -1})
	registerGraph(t, ts, "g", graphText(t, 5000, 20000, 7))

	const burst = 8
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			// Distinct seeds → distinct query hashes, so the cache cannot
			// absorb any of the burst.
			code, qr := postQuery(t, ts, QueryRequest{Graph: "g", Algo: "Bor-CAS", Seed: uint64(seed)})
			if code != http.StatusOK || qr.Result == nil {
				errs <- fmt.Errorf("burst query %d: status %d", seed, code)
			}
		}(i + 1)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var mr metricsResponse
	if code := do(t, "GET", ts.URL+"/v1/metrics", nil, &mr); code != http.StatusOK {
		t.Fatalf("/v1/metrics: %d", code)
	}
	peak := mr.Server.Counters["serve_jobs_running_peak"]
	if peak > 2 {
		t.Errorf("running peak = %d, want <= 2 (K=2 workers)", peak)
	}
	if peak == 0 {
		t.Error("running peak never recorded")
	}
	if got := mr.Server.Counters["serve_engine_runs"]; got != burst {
		t.Errorf("engine_runs = %d, want %d", got, burst)
	}
	if got := mr.Server.Counters["serve_jobs_completed"]; got != burst {
		t.Errorf("jobs_completed = %d, want %d", got, burst)
	}
}

// TestServiceConcurrentClients hammers every surface at once under
// -race: uploads, queries (sync + async), cache-hitting re-queries,
// job polls, metrics reads, and deletes.
func TestServiceConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 64, CacheEntries: 8})
	registerGraph(t, ts, "shared", graphText(t, 1000, 4000, 11))

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := fmt.Sprintf("mine-%d", c)
			registerGraph(t, ts, name, graphText(t, 200, 600, uint64(c)+20))
			for i := 0; i < 5; i++ {
				// Same request every iteration → later rounds hit the cache.
				if code, _ := postQuery(t, ts, QueryRequest{Graph: "shared", Algo: "Bor-CAS"}); code != http.StatusOK {
					t.Errorf("client %d shared query: %d", c, code)
				}
				code, qr := postQuery(t, ts, QueryRequest{Graph: name, Async: i%2 == 0})
				if code != http.StatusOK && code != http.StatusAccepted {
					t.Errorf("client %d own query: %d", c, code)
				}
				if qr.JobID != "" {
					do(t, "GET", ts.URL+"/v1/jobs/"+qr.JobID, nil, nil)
				}
				do(t, "GET", ts.URL+"/v1/metrics", nil, nil)
				do(t, "GET", ts.URL+"/v1/status", nil, nil)
			}
			if code := do(t, "DELETE", ts.URL+"/v1/graphs/"+name, nil, nil); code != http.StatusOK {
				t.Errorf("client %d delete: %d", c, code)
			}
		}(c)
	}
	wg.Wait()

	c := serverCounters(t, ts)
	if c["serve_cache_hits"] == 0 {
		t.Error("no cache hits across repeated identical queries")
	}
	if c["serve_jobs_failed"] != 0 {
		t.Errorf("jobs_failed = %d, want 0", c["serve_jobs_failed"])
	}
}
