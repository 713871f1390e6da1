package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"pmsf"
	"pmsf/internal/serve"
)

// call sends one request and decodes a 2xx JSON response into out. A
// non-2xx response is a failure of kind "http <code>".
func call(c *http.Client, method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &failure{kind: fmt.Sprintf("http %d", resp.StatusCode),
			err: fmt.Errorf("%s %s: %s", method, url, strings.TrimSpace(string(data)))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// queryAnswer checks a query response against the yardstick's forest.
func queryAnswer(q *serve.QueryResponse, want *pmsf.Forest, what string) error {
	if q.Result == nil {
		return fmt.Errorf("%s: no result (state %s, error %q)", what, q.State, q.Error)
	}
	return answer{q.Result.Weight, q.Result.ForestSize, q.Result.Components}.against(want, what)
}

type serveEnv struct {
	srv         *serve.Server
	ts          *httptest.Server
	writer      *http.Client // one connection each: two clients
	reader      *http.Client
	stream      *pmsf.EdgeStream
	live        *mirror // graph "big"
	small       *pmsf.Graph
	smallOracle *pmsf.Forest
	twin        *pmsf.Dynamic // traced runs: library handle fed the same batches
	next        int
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

func (env *serveEnv) close() {
	env.writer.CloseIdleConnections()
	env.reader.CloseIdleConnections()
	env.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = env.srv.Shutdown(ctx)
}

// serveSetup generates "big" and "small" and big's mutation stream,
// starts the server, registers both graphs, sends the first query on
// small (it fills the cache the reader hits) and the first PATCH on big
// (it creates the graph's dynamic handle), then the first query on big.
func serveSetup(cfg config, res *result) (*serveEnv, time.Duration, error) {
	start := time.Now()
	env := &serveEnv{writer: newClient(), reader: newClient()}
	op := res.rec.op()
	var big *pmsf.Graph
	res.set("input.gen_ms", ms(res.rec.span(op, "input", "random-graph", func() {
		big = pmsf.RandomGraph(cfg.sizes.n, cfg.sizes.m, cfg.seed)
		env.small = pmsf.RandomGraph(cfg.sizes.smallN, cfg.sizes.smallM, cfg.seed+2)
	})))
	batches := int(cfg.seconds*10) + 10
	res.set("input.stream_ms", ms(res.rec.span(op, "input", "sliding-window", func() {
		env.stream = pmsf.SlidingWindowMutations(big, batches*cfg.sizes.patchBatch, 0, cfg.sizes.patchBatch, cfg.seed+1)
	})))
	env.live = newMirror(big)

	// Rate limiting stays in the request path but is sized never to
	// refuse the benchmark's two clients.
	env.srv = serve.New(serve.Config{Workers: 1, MaxJobWorkers: workers, RatePerSecond: 1e9, Burst: 1 << 30})
	env.srv.Start()
	env.ts = httptest.NewServer(env.srv.Handler())

	for _, up := range []struct {
		name string
		g    *pmsf.Graph
	}{{"big", big}, {"small", env.small}} {
		var buf bytes.Buffer
		if err := pmsf.WriteGraph(&buf, up.g, pmsf.FormatBinary); err != nil {
			return env, 0, err
		}
		var err error
		d := res.rec.span(op, "serve", "register", func() {
			err = call(env.writer, "POST", env.ts.URL+"/v1/graphs/"+up.name+"?format=binary", buf.Bytes(), nil)
		})
		if !res.check(err) {
			return env, 0, err
		}
		if up.name == "big" {
			res.set("serve.register_ms", ms(d))
		}
	}
	env.smallOracle = yardstick(env.small)
	var q serve.QueryResponse
	err := call(env.writer, "POST", env.ts.URL+"/v1/queries", hitQuery, &q)
	if err == nil {
		err = queryAnswer(&q, env.smallOracle, "first query on small")
	}
	if !res.check(err) {
		return env, 0, err
	}
	if cfg.trace {
		if env.twin, err = pmsf.NewDynamic(big, pmsf.MSTBC, pmsf.Options{Workers: workers}); !res.check(err) {
			return env, 0, err
		}
	}
	if _, err := env.patch(res, nil); err != nil {
		return env, 0, err
	}
	return env, time.Since(start), nil
}

var (
	hitQuery = []byte(`{"graph":"small"}`)
	bigQuery = []byte(`{"graph":"big"}`)
)

// patchCycle is one writer cycle: PATCH round trip, the yardstick on
// the patched live graph, the re-query of big, and (traced runs) the
// same batch through ApplyEdges on the twin handle.
type patchCycle struct {
	patch, seq, dynread, twin time.Duration
}

func toPatch(es []pmsf.Edge) []serve.PatchEdge {
	out := make([]serve.PatchEdge, len(es))
	for i, e := range es {
		out[i] = serve.PatchEdge{U: e.U, V: e.V, W: e.W}
	}
	return out
}

// patch sends the next batch of big's stream and checks the PATCH delta
// and the re-query answer against the yardstick. rec is nil for
// untraced cycles. An error ends the writer: the server's graph and
// the mirror may no longer agree.
func (env *serveEnv) patch(res *result, rec *recorder) (patchCycle, error) {
	b := env.stream.Batches[env.next]
	env.next++
	var c patchCycle
	body, err := json.Marshal(serve.PatchRequest{Add: toPatch(b.Add), Del: toPatch(b.Del)})
	if err != nil {
		return c, err
	}
	op := rec.op()
	var pr serve.PatchResponse
	c.patch = rec.span(op, "serve", "patch", func() {
		err = call(env.writer, "PATCH", env.ts.URL+"/v1/graphs/big/edges", body, &pr)
	})
	if !res.check(err) {
		return c, err
	}
	if err := env.live.apply(b.Add, b.Del); err != nil {
		res.check(err)
		return c, err
	}
	if env.twin != nil {
		c.twin = rec.span(op, "dynamic", "twin-apply-edges", func() { _, err = env.twin.ApplyEdges(b.Add, b.Del) })
		if !res.check(err) {
			return c, err
		}
	}
	var f *pmsf.Forest
	c.seq = rec.span(op, "yardstick", "prim", func() { f = yardstick(env.live.graph()) })
	d := pr.Delta
	err = answer{d.Weight, d.ForestSize, d.Components}.against(f, "patch delta")
	if !res.check(err) {
		return c, err
	}
	var q serve.QueryResponse
	c.dynread = rec.span(op, "serve", "query-dynamic", func() {
		err = call(env.writer, "POST", env.ts.URL+"/v1/queries", bigQuery, &q)
	})
	if err == nil {
		err = queryAnswer(&q, f, "re-query of big")
	}
	if err == nil && q.Result.Algorithm != "dynamic" {
		err = fmt.Errorf("re-query of big ran %q, want the maintained forest", q.Result.Algorithm)
	}
	res.check(err)
	return c, nil
}

// readerStats are the reader client's samples.
type readerStats struct {
	hitMS, missX, missMS, missSeqMS, missEngineMS, missOverheadMS []float64
	uncachedHits                                                  int
}

// read runs the reader client until the deadline: cached queries on
// small, and every missEvery-th request a fresh-seed query that misses
// the cache and runs MST-BC through the queue, timed next to the
// yardstick on small.
func (env *serveEnv) read(cfg config, res *result, deadline time.Time) readerStats {
	var st readerStats
	for j := 1; time.Now().Before(deadline); j++ {
		rec := res.rec
		op := rec.op()
		var q serve.QueryResponse
		var err error
		if j%cfg.sizes.missEvery != 0 {
			d := rec.span(op, "serve", "query-hit", func() {
				err = call(env.reader, "POST", env.ts.URL+"/v1/queries", hitQuery, &q)
			})
			if err == nil {
				err = queryAnswer(&q, env.smallOracle, "cached query on small")
			}
			if res.check(err) {
				if q.Result.Cached {
					st.hitMS = append(st.hitMS, ms(d))
				} else {
					st.uncachedHits++
				}
			}
			continue
		}
		seq := rec.span(op, "yardstick", "prim", func() { yardstick(env.small) })
		body := []byte(fmt.Sprintf(`{"graph":"small","seed":%d}`, 1_000_000+j))
		d := rec.span(op, "serve", "query-miss", func() {
			err = call(env.reader, "POST", env.ts.URL+"/v1/queries", body, &q)
		})
		if err == nil {
			err = queryAnswer(&q, env.smallOracle, "uncached query on small")
		}
		if err == nil && q.Result.Cached {
			err = fmt.Errorf("fresh-seed query on small was answered from the cache")
		}
		if res.check(err) {
			st.missX = append(st.missX, ms(seq)/ms(d))
			st.missMS = append(st.missMS, ms(d))
			st.missSeqMS = append(st.missSeqMS, ms(seq))
			engine := float64(q.Result.WallNS) / 1e6
			st.missEngineMS = append(st.missEngineMS, engine)
			st.missOverheadMS = append(st.missOverheadMS, ms(d)-engine)
		}
	}
	return st
}

// serverCounters reads the server half of /v1/metrics.
func (env *serveEnv) serverCounters() (map[string]int64, error) {
	var m struct {
		Server struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"server"`
	}
	err := call(env.writer, "GET", env.ts.URL+"/v1/metrics", nil, &m)
	return m.Server.Counters, err
}

// runServe drives the in-process server with a closed loop of two
// clients: a writer PATCHing big and re-querying it, and a reader
// querying small. The two never PATCH the same graph concurrently, so
// the design produces no 409.
func runServe(cfg config, res *result) error {
	env, setups, err := setUp(cfg, func() (*serveEnv, time.Duration, error) { return serveSetup(cfg, res) },
		(*serveEnv).close)
	if err != nil {
		env.close()
		return fmt.Errorf("serve-mixed setup: %w", err)
	}
	defer env.close()
	var before map[string]int64
	if cfg.trace {
		if before, err = env.serverCounters(); !res.check(err) {
			return err
		}
	}

	rss := watchRSS()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var cycles []patchCycle
	var tracedX, plainX []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; env.next < len(env.stream.Batches) && (len(cycles) == 0 || time.Now().Before(deadline)); i++ {
			slot := time.Now().Add(cfg.sizes.patchEvery)
			// Traced runs record spans on every other cycle, so the
			// span overhead can be read off the two halves.
			var rec *recorder
			if i%2 == 1 {
				rec = res.rec
			}
			c, err := env.patch(res, rec)
			if err != nil {
				return
			}
			cycles = append(cycles, c)
			x := ms(c.seq) / ms(c.patch)
			if rec != nil {
				tracedX = append(tracedX, x)
			} else {
				plainX = append(plainX, x)
			}
			if slot.Before(deadline) {
				time.Sleep(time.Until(slot))
			}
		}
	}()
	rd := env.read(cfg, res, deadline)
	wg.Wait()
	res.set("peak_rss_mb", rss())
	if len(cycles) == 0 || len(rd.missX) == 0 || len(rd.hitMS) == 0 {
		return fmt.Errorf("serve-mixed: run too short (%d patches, %d misses, %d hits)",
			len(cycles), len(rd.missX), len(rd.hitMS))
	}

	var patchX, patchMS, seqMS, dynreadMS, overheadMS []float64
	for _, c := range cycles {
		patchX = append(patchX, ms(c.seq)/ms(c.patch))
		patchMS = append(patchMS, ms(c.patch))
		seqMS = append(seqMS, ms(c.seq))
		dynreadMS = append(dynreadMS, ms(c.dynread))
		if env.twin != nil {
			overheadMS = append(overheadMS, ms(c.patch)-ms(c.twin))
		}
	}
	xp := res.opResult("patch", median(patchX), patchMS, seqMS)
	xm := res.opResult("miss", median(rd.missX), rd.missMS, rd.missSeqMS)
	res.latency("hit_ms", rd.hitMS)
	res.latency("dynread_ms", dynreadMS)
	res.raw["uncached_hits"] = rd.uncachedHits
	res.setEndToEnd(setups, median(seqMS), []float64{xp, xm})
	res.set("host.patch_ms", median(patchMS))
	res.set("host.miss_ms", median(rd.missMS))
	res.set("host.seq_ref_ms", median(seqMS))
	if !cfg.trace {
		return nil
	}

	after, err := env.serverCounters()
	if !res.check(err) {
		return err
	}
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	res.set("serve.hit_ms_p50", median(rd.hitMS))
	res.set("serve.dynread_ms_p50", median(dynreadMS))
	res.set("serve.patch_overhead_ms", median(overheadMS))
	res.set("serve.miss_engine_ms", median(rd.missEngineMS))
	res.set("serve.miss_overhead_ms", median(rd.missOverheadMS))
	lookups := delta("serve_cache_hits") + delta("serve_cache_misses")
	res.set("serve.cache_lookups", lookups)
	if lookups > 0 {
		res.set("serve.cache_hit_ratio", delta("serve_cache_hits")/lookups)
	}
	res.set("serve.engine_runs", delta("serve_engine_runs"))
	res.set("serve.dyn_answers", delta("serve_dyn_answers"))
	res.set("serve.cache_invalidations", delta("serve_cache_invalidations"))
	res.set("serve.jobs_rejected", delta("serve_jobs_rejected"))
	res.set("serve.rate_limited", delta("serve_rate_limited"))
	res.set("serve.conflicts", float64(res.reasons["http 409"]))
	if len(tracedX) > 0 && len(plainX) > 0 {
		res.set("obs.trace_overhead", median(plainX)/median(tracedX))
	}
	return nil
}
