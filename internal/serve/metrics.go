// Package serve is the long-running MSF service behind cmd/msf-serve:
// an HTTP+JSON API over a named graph registry, a bounded-concurrency
// job queue on a persistent par.Team worker pool, an LRU forest cache
// keyed by graph name + version and the query, per-client token-bucket
// admission control, and live metrics/SSE surfaces built on
// internal/obs. It turns the batch MSF library into a system: graphs
// are ingested once and queried many times, engine runs are bounded to
// K at a time, and identical queries are answered from cache without
// touching an engine.
package serve

import (
	"pmsf/internal/obs"
)

// Metrics is the service's own obs registry: every counter and gauge
// the acceptance surfaces (/metrics, /status) and the tests read. It is
// deliberately a separate registry from obs.Default() — the process
// registry belongs to the engine kernels; this one belongs to the
// service control plane.
type Metrics struct {
	reg *obs.Registry

	// Engine/queue accounting.
	JobsSubmitted   *obs.Counter // jobs admitted into the queue
	JobsCompleted   *obs.Counter // jobs that produced a result
	JobsFailed      *obs.Counter // jobs whose engine run errored
	JobsCanceled    *obs.Counter // jobs canceled while queued (drain)
	JobsRejected    *obs.Counter // admissions refused (queue full or draining)
	EngineRuns      *obs.Counter // actual engine invocations (cache misses that ran)
	JobsRunning     *obs.Gauge   // engine runs executing right now
	JobsRunningPeak *obs.Gauge   // high-water mark of JobsRunning
	JobsQueued      *obs.Gauge   // jobs admitted but not yet running

	// Forest cache.
	CacheHits          *obs.Counter
	CacheMisses        *obs.Counter
	CacheEvictions     *obs.Counter
	CacheInvalidations *obs.Counter // entries dropped because their graph was patched
	CacheEntries       *obs.Gauge

	// Dynamic updates.
	Patches      *obs.Counter // PATCH batches committed
	PatchedEdges *obs.Counter // edge mutations applied through PATCH
	DynAnswers   *obs.Counter // MSF queries answered from a maintained dynamic forest

	// Admission control.
	RateLimited *obs.Counter // requests refused with 429 by the token bucket

	// Graph registry.
	GraphCount *obs.Gauge
	GraphBytes *obs.Gauge
}

// NewMetrics returns a fresh metrics registry for one server instance.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	return &Metrics{
		reg:                reg,
		JobsSubmitted:      reg.Counter("serve_jobs_submitted"),
		JobsCompleted:      reg.Counter("serve_jobs_completed"),
		JobsFailed:         reg.Counter("serve_jobs_failed"),
		JobsCanceled:       reg.Counter("serve_jobs_canceled"),
		JobsRejected:       reg.Counter("serve_jobs_rejected"),
		EngineRuns:         reg.Counter("serve_engine_runs"),
		JobsRunning:        reg.Gauge("serve_jobs_running"),
		JobsRunningPeak:    reg.Gauge("serve_jobs_running_peak"),
		JobsQueued:         reg.Gauge("serve_jobs_queued"),
		CacheHits:          reg.Counter("serve_cache_hits"),
		CacheMisses:        reg.Counter("serve_cache_misses"),
		CacheEvictions:     reg.Counter("serve_cache_evictions"),
		CacheInvalidations: reg.Counter("serve_cache_invalidations"),
		CacheEntries:       reg.Gauge("serve_cache_entries"),
		Patches:            reg.Counter("serve_patches"),
		PatchedEdges:       reg.Counter("serve_patched_edges"),
		DynAnswers:         reg.Counter("serve_dyn_answers"),
		RateLimited:        reg.Counter("serve_rate_limited"),
		GraphCount:         reg.Gauge("serve_graphs"),
		GraphBytes:         reg.Gauge("serve_graph_bytes"),
	}
}

// Registry exposes the underlying obs registry (for /metrics exports
// and tests).
func (m *Metrics) Registry() *obs.Registry { return m.reg }
