package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pmsf"
	"pmsf/internal/obs"
)

// ErrBadQuery is a malformed query body (400).
var ErrBadQuery = errors.New("serve: bad query")

// maxGraphNameLen bounds registered graph names.
const maxGraphNameLen = 128

// defaultAlgo answers MSF queries that name no engine and seeds the
// dynamic handle on a graph's first PATCH: Bor-CAS, the fastest or tied
// engine at p = 2 on random, mesh and str3 inputs.
const defaultAlgo = pmsf.BorCAS

// routes builds the HTTP surface. Admission-controlled endpoints (graph
// mutation, queries) go through the per-client rate limiter; cheap
// read-only surfaces (status, metrics, job polling) do not, so a
// throttled client can still observe its jobs.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	mux.HandleFunc("POST /v1/graphs/{name}", s.limited(s.handleRegisterGraph))
	mux.HandleFunc("GET /v1/graphs/{name}", s.handleGetGraph)
	mux.HandleFunc("DELETE /v1/graphs/{name}", s.limited(s.handleRemoveGraph))
	mux.HandleFunc("PATCH /v1/graphs/{name}/edges", s.limited(s.handlePatchEdges))
	mux.HandleFunc("POST /v1/queries", s.limited(s.handleQuery))
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	return mux
}

// clientKey identifies the caller for rate limiting: the X-API-Key
// header when present, else the remote host.
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// limited wraps h with the per-client token bucket: 429 + Retry-After
// on an empty bucket.
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ok, retryAfter := s.limiter.Allow(clientKey(r))
		if !ok {
			w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter.Round(time.Second)/time.Second)))
			writeError(w, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
		h(w, r)
	}
}

// writeJSON writes one JSON response with the given status.
//
//msf:respwrite
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes one JSON error envelope with the given status.
//
//msf:respwrite
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// statusResponse is the GET /v1/status body.
type statusResponse struct {
	Status      string           `json:"status"` // "ok" or "draining"
	UptimeNS    int64            `json:"uptime_ns"`
	Draining    bool             `json:"draining"`
	Workers     int              `json:"workers"`
	QueueDepth  int              `json:"queue_depth"`
	QueueLen    int              `json:"queue_len"`
	RunningPeak int64            `json:"running_peak"`
	GoMaxProcs  int              `json:"gomaxprocs"`
	Algorithms  []string         `json:"algorithms"`
	Graphs      []GraphInfo      `json:"graphs"`
	CacheLen    int              `json:"cache_len"`
	Counters    map[string]int64 `json:"counters"`
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	names := make([]string, 0)
	for _, a := range pmsf.Algorithms() {
		names = append(names, a.String())
	}
	writeJSON(w, http.StatusOK, statusResponse{
		Status:      status,
		UptimeNS:    time.Since(s.started).Nanoseconds(),
		Draining:    s.Draining(),
		Workers:     s.queue.Workers(),
		QueueDepth:  s.cfg.QueueDepth,
		QueueLen:    s.queue.Depth(),
		RunningPeak: s.queue.RunningPeak(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Algorithms:  names,
		Graphs:      s.registry.List(),
		CacheLen:    s.cache.Len(),
		Counters:    s.metrics.Registry().Snapshot(),
	})
}

// counterSnapshot is one registry's counters and gauges by name.
type counterSnapshot struct {
	Counters map[string]int64 `json:"counters"`
}

// metricsResponse is the GET /v1/metrics body: the service's own
// control-plane registry plus the process-wide engine-kernel registry
// (no expvar text scraping).
type metricsResponse struct {
	Server  counterSnapshot `json:"server"`
	Process counterSnapshot `json:"process"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, metricsResponse{
		Server:  counterSnapshot{s.metrics.Registry().Snapshot()},
		Process: counterSnapshot{obs.Default().Snapshot()},
	})
}

func (s *Server) handleListGraphs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.registry.List()})
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	info, err := s.registry.Get(r.PathValue("name"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleRemoveGraph(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	name := r.PathValue("name")
	if err := s.registry.Remove(name); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.cache.DropGraph(name)
	writeJSON(w, http.StatusOK, map[string]string{"status": "removed"})
}

// validGraphName accepts dense, URL- and log-safe names.
func validGraphName(name string) bool {
	if name == "" || len(name) > maxGraphNameLen {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// handleRegisterGraph ingests POST /v1/graphs/{name}?format=text. The
// body is the graph in any supported on-disk format, capped at
// MaxUploadBytes (413 past it).
func (s *Server) handleRegisterGraph(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	name := r.PathValue("name")
	if !validGraphName(name) {
		writeError(w, http.StatusBadRequest,
			"invalid graph name %q: want 1-%d chars of [a-zA-Z0-9._-]", name, maxGraphNameLen)
		return
	}
	formatName := r.URL.Query().Get("format")
	if formatName == "" {
		formatName = "text"
	}
	format, err := pmsf.ParseGraphFormat(formatName)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"graph upload exceeds %d bytes", s.cfg.MaxUploadBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	g, err := pmsf.ReadGraph(bytes.NewReader(body), format)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parsing graph: %v", err)
		return
	}
	info, err := s.registry.Register(name, g)
	switch {
	case errors.Is(err, ErrGraphExists):
		writeError(w, http.StatusConflict, "%v", err)
		return
	case errors.Is(err, ErrRegistryFull):
		writeError(w, http.StatusInsufficientStorage, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// PatchEdge is one edge in a PATCH body.
type PatchEdge struct {
	U int32   `json:"u"`
	V int32   `json:"v"`
	W float64 `json:"w"`
}

// PatchRequest is the PATCH /v1/graphs/{name}/edges body: one atomic
// batch of edge mutations. Deletions identify edges by value (either
// orientation, exact weight) among the edges live before the batch.
type PatchRequest struct {
	Add []PatchEdge `json:"add,omitempty"`
	Del []PatchEdge `json:"del,omitempty"`
}

// PatchDelta is the applied-batch report in a PATCH response.
type PatchDelta struct {
	Added        int     `json:"added"`
	Deleted      int     `json:"deleted"`
	Links        int     `json:"links"`
	Swaps        int     `json:"swaps"`
	Replacements int     `json:"replacements"`
	Splits       int     `json:"splits"`
	Weight       float64 `json:"weight"`
	ForestSize   int     `json:"forest_size"`
	Components   int     `json:"components"`
}

// PatchResponse is the PATCH /v1/graphs/{name}/edges response: the
// graph's post-patch registration info (new version, new m) plus what
// the batch did to the maintained forest.
type PatchResponse struct {
	Graph GraphInfo  `json:"graph"`
	Delta PatchDelta `json:"delta"`
	// Invalidated is the number of cached results dropped because they
	// were computed against the pre-patch graph.
	Invalidated int `json:"invalidated_cache_entries"`
}

func toEdges(in []PatchEdge) []pmsf.Edge {
	out := make([]pmsf.Edge, len(in))
	for i, e := range in {
		out[i] = pmsf.Edge{U: e.U, V: e.V, W: e.W}
	}
	return out
}

// handlePatchEdges mutates a registered graph in place: the batch is
// applied through the graph's dynamic-MSF handle (created on first
// patch), and the registry entry is swapped to the new snapshot —
// graph, version, and maintained forest — so subsequent MSF queries
// are answered from the maintained forest without an engine run.
// In-flight queries keep the pre-patch snapshot via their leases. The
// graph's cached results are dropped, and a query still running on the
// old snapshot fills an entry under the old version, which no later
// query's key reaches.
func (s *Server) handlePatchEdges(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	name := r.PathValue("name")
	var req PatchRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"patch body exceeds %d bytes", s.cfg.MaxUploadBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "decoding patch: %v", err)
		return
	}

	guard, err := s.registry.BeginPatch(name, int64(len(req.Add))*24)
	switch {
	case errors.Is(err, ErrGraphNotFound):
		writeError(w, http.StatusNotFound, "%v", err)
		return
	case errors.Is(err, ErrPatchInFlight):
		writeError(w, http.StatusConflict, "%v", err)
		return
	case errors.Is(err, ErrRegistryFull):
		writeError(w, http.StatusInsufficientStorage, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	// Everything below runs without any registry lock held: the guard
	// serializes patches per graph, and reads keep the old snapshot.
	dyn := guard.Dyn
	if dyn == nil {
		seeded, seedErr := pmsf.NewDynamic(guard.Graph, defaultAlgo, pmsf.Options{Workers: s.cfg.MaxJobWorkers})
		if seedErr != nil {
			guard.Abort()
			writeError(w, http.StatusInternalServerError, "seeding dynamic forest: %v", seedErr)
			return
		}
		dyn = seeded
	}
	delta, applyErr := dyn.ApplyEdges(toEdges(req.Add), toEdges(req.Del))
	if err := applyErr; err != nil {
		if errors.Is(err, pmsf.ErrDynamicBroken) {
			// Internal invariant failure: drop the poisoned handle so the
			// next patch reseeds from the published (still valid) snapshot.
			guard.Reset()
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		guard.Abort()
		// Validation failures are atomic: the handle (and the graph) are
		// unchanged, so the guard can simply be released.
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	newG, forest := dyn.SnapshotWithForest()
	info := guard.Commit(newG, forest, dyn)
	dropped := s.cache.DropGraph(name)

	s.metrics.Patches.Add(1)
	s.metrics.PatchedEdges.Add(int64(delta.Added + delta.Deleted))
	writeJSON(w, http.StatusOK, PatchResponse{
		Graph: info,
		Delta: PatchDelta{
			Added:        delta.Added,
			Deleted:      delta.Deleted,
			Links:        delta.Links,
			Swaps:        delta.Swaps,
			Replacements: delta.Replacements,
			Splits:       delta.Splits,
			Weight:       delta.Weight,
			ForestSize:   delta.ForestSize,
			Components:   delta.Components,
		},
		Invalidated: dropped,
	})
}

// QueryRequest is the POST /v1/queries body.
type QueryRequest struct {
	// Graph names a registered graph (required).
	Graph string `json:"graph"`
	// Kind is "msf" (default) or "components".
	Kind string `json:"kind,omitempty"`
	// Algo is any pmsf.ParseAlgorithm name; default Bor-CAS. Ignored by
	// components queries.
	Algo string `json:"algo,omitempty"`
	// Workers is the engine worker count, clamped to the server's
	// MaxJobWorkers; 0 means server default.
	Workers int `json:"workers,omitempty"`
	// BaseSize, Seed, SortEngine pass through to pmsf.Options. Only
	// MST-BC reads BaseSize and only Bor-EL reads SortEngine.
	BaseSize   int    `json:"base_size,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
	SortEngine string `json:"sort_engine,omitempty"`
	// IncludeEdges returns the forest's edge ids (O(n) payload).
	IncludeEdges bool `json:"include_edges,omitempty"`
	// IncludeLabels returns per-vertex component labels (O(n) payload).
	IncludeLabels bool `json:"include_labels,omitempty"`
	// Async returns 202 + a job id immediately instead of waiting.
	Async bool `json:"async,omitempty"`
}

// QueryResponse is the sync/async/cached response envelope.
type QueryResponse struct {
	JobID  string   `json:"job_id,omitempty"`
	State  JobState `json:"state"`
	Result *Result  `json:"result,omitempty"`
	Error  string   `json:"error,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding query: %v", err)
		return
	}
	if req.Graph == "" {
		writeError(w, http.StatusBadRequest, "missing \"graph\"")
		return
	}
	kind := QueryKind(req.Kind)
	if req.Kind == "" {
		kind = KindMSF
	}
	if kind != KindMSF && kind != KindComponents {
		writeError(w, http.StatusBadRequest, "unknown kind %q: want %q or %q", req.Kind, KindMSF, KindComponents)
		return
	}
	if req.Workers < 0 {
		writeError(w, http.StatusBadRequest, "negative workers %d", req.Workers)
		return
	}
	workers := req.Workers
	if workers > s.cfg.MaxJobWorkers {
		workers = s.cfg.MaxJobWorkers
	}

	key := CacheKey{Kind: kind, Workers: workers, IncludeEdges: req.IncludeEdges, IncludeLabels: req.IncludeLabels}
	if kind == KindMSF {
		key.Algo = defaultAlgo
		if req.Algo != "" {
			algo, err := pmsf.ParseAlgorithm(req.Algo)
			if err != nil {
				writeError(w, http.StatusBadRequest, "%v (want one of %s)", err, algorithmNames())
				return
			}
			key.Algo = algo
		}
		// The key is the job's spec: an option the engine does not read
		// stays zero, so queries that differ only in it share one entry.
		key.Seed = req.Seed
		if key.Algo == pmsf.MSTBC {
			key.BaseSize = req.BaseSize
		}
		if req.SortEngine != "" {
			engine, err := pmsf.ParseSortEngine(req.SortEngine)
			if err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
			if key.Algo == pmsf.BorEL {
				key.SortEngine = engine
			}
		}
	}

	lease, err := s.registry.Acquire(req.Graph)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	key.Name, key.Version = lease.Name, lease.Version
	if f := lease.Forest; kind == KindMSF && f != nil {
		// A patched graph's lease carries the maintained MSF of exactly
		// this snapshot: answer it here, as a cache hit is answered, with
		// no job, no queue slot and no cache entry.
		s.metrics.DynAnswers.Add(1)
		res := &Result{Kind: KindMSF, Algorithm: "dynamic", Graph: key.Name, N: lease.Graph.N, M: len(lease.Graph.Edges)}
		res.setForest(f, key.IncludeEdges)
		lease.Release()
		writeJSON(w, http.StatusOK, QueryResponse{State: StateDone, Result: res})
		return
	}
	if res, ok := s.cache.Get(key); ok {
		lease.Release()
		hit := *res
		hit.Cached = true
		writeJSON(w, http.StatusOK, QueryResponse{State: StateDone, Result: &hit})
		return
	}

	job := s.queue.NewJob(key, lease)
	if err := s.queue.Submit(job); err != nil {
		lease.Release()
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}

	if req.Async {
		writeJSON(w, http.StatusAccepted, QueryResponse{JobID: job.ID, State: job.State()})
		return
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		// Client left; the job still runs (its result fills the cache).
		return
	}
	res, err := job.Outcome()
	if err != nil {
		status := http.StatusInternalServerError
		if job.State() == StateCanceled {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, QueryResponse{JobID: job.ID, State: job.State(), Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, QueryResponse{JobID: job.ID, State: job.State(), Result: res})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.queue.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

// algorithmNames renders the canonical engine list for error messages
// and flag help — pmsf.Algorithms() is the single source of truth.
func algorithmNames() string {
	names := make([]string, 0, len(pmsf.Algorithms()))
	for _, a := range pmsf.Algorithms() {
		names = append(names, a.String())
	}
	return strings.Join(names, ", ")
}
