package serve

import (
	"context"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"pmsf"
)

// Config sizes one server instance. The zero value of any field picks
// the documented default.
type Config struct {
	// Workers is K: the maximum number of engine runs executing at
	// once. Default: GOMAXPROCS/2, at least 1.
	Workers int
	// QueueDepth is the backlog beyond the K running jobs. Admissions
	// past it get 429. Default 64.
	QueueDepth int
	// RegistryCapBytes caps the graph registry's resident bytes.
	// Default 2 GiB; <0 means unlimited.
	RegistryCapBytes int64
	// MaxUploadBytes caps one graph upload body. Default 256 MiB.
	MaxUploadBytes int64
	// CacheEntries is the LRU forest cache capacity. Default 128;
	// <0 disables caching.
	CacheEntries int
	// RatePerSecond / Burst configure the per-client token bucket.
	// Default 50 req/s with a burst of 100; RatePerSecond<0 disables.
	RatePerSecond float64
	Burst         int
	// MaxJobWorkers clamps the per-query Workers option. Default
	// GOMAXPROCS.
	MaxJobWorkers int
	// DrainTimeout bounds Shutdown's wait for in-flight runs.
	// Default 30s.
	DrainTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0) / 2
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.RegistryCapBytes == 0 {
		c.RegistryCapBytes = 2 << 30
	}
	if c.MaxUploadBytes == 0 {
		c.MaxUploadBytes = 256 << 20
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.RatePerSecond == 0 {
		c.RatePerSecond = 50
	}
	if c.Burst == 0 {
		c.Burst = 100
	}
	if c.MaxJobWorkers <= 0 {
		c.MaxJobWorkers = runtime.GOMAXPROCS(0)
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	return c
}

// Server wires the subsystems together and owns the HTTP surface.
type Server struct {
	cfg      Config
	metrics  *Metrics
	registry *Registry
	cache    *Cache
	queue    *Queue
	limiter  *Limiter
	mux      *http.ServeMux
	started  time.Time
	draining atomic.Bool
}

// New assembles a server. Call Start before serving and Shutdown when
// done.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	s := &Server{
		cfg:      cfg,
		metrics:  m,
		registry: NewRegistry(cfg.RegistryCapBytes, m),
		cache:    NewCache(cfg.CacheEntries, m),
		limiter:  NewLimiter(cfg.RatePerSecond, cfg.Burst, m),
		started:  time.Now(),
	}
	s.queue = NewQueue(cfg.Workers, cfg.QueueDepth, m, s.execute)
	s.mux = s.routes()
	return s
}

// Start launches the worker pool.
func (s *Server) Start() { s.queue.Start() }

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the service metrics (tests and /metrics).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Queue exposes the job queue (tests and /status).
func (s *Server) Queue() *Queue { return s.queue }

// Draining reports whether admission has been stopped.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown performs the graceful drain: stop admission (new queries and
// uploads get 503), cancel everything still queued, and wait for
// in-flight engine runs under the configured deadline (or ctx's,
// whichever is sooner). In-flight synchronous requests still receive
// their results: their jobs run to completion and their handlers are
// woken by the jobs' done channels.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	dctx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	return s.queue.Shutdown(dctx)
}

// queryHash mixes the query kind into the options hash so MSF and
// components results never collide in the cache.
func queryHash(kind QueryKind, algo pmsf.Algorithm, opt pmsf.Options) uint64 {
	h := pmsf.HashOptions(algo, opt)
	for _, b := range []byte(kind) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// execute runs one job on a queue worker and fills the cache. MSF
// queries against a patched graph are answered from its dynamically
// maintained forest (no engine run); everything else is the only place
// the service invokes an engine.
func (s *Server) execute(j *Job) (*Result, error) {
	g := j.lease.Graph
	res := &Result{
		Kind:  j.Kind,
		Graph: j.lease.Name,
		N:     g.N,
		M:     len(g.Edges),
	}
	start := time.Now()
	switch j.Kind {
	case KindMSF:
		if f := j.lease.Forest; f != nil {
			// The lease carries the maintained MSF of exactly this
			// snapshot: the engine result is already known.
			s.metrics.DynAnswers.Add(1)
			res.Algorithm = "dynamic"
			res.Weight = f.Weight
			res.ForestSize = f.Size()
			res.Components = f.Components
			if j.IncludeEdges {
				res.EdgeIDs = f.EdgeIDs
			}
			break
		}
		s.metrics.EngineRuns.Add(1)
		opt := j.Opt
		opt.Trace = j.trace
		f, stats, err := pmsf.MinimumSpanningForest(g, j.Algo, opt)
		if err != nil {
			return nil, err
		}
		if len(stats.PhaseTotalNS) > 0 {
			res.PhaseTotalNS = stats.PhaseTotalNS
		}
		res.Algorithm = j.Algo.String()
		res.Weight = f.Weight
		res.ForestSize = f.Size()
		res.Components = f.Components
		if j.IncludeEdges {
			res.EdgeIDs = f.EdgeIDs
		}
	case KindComponents:
		s.metrics.EngineRuns.Add(1)
		labels, n, err := pmsf.ConnectedComponents(g, j.Opt.Workers)
		if err != nil {
			return nil, err
		}
		res.Components = n
		if j.IncludeLabels {
			res.Labels = labels
		}
	default:
		return nil, ErrBadQuery
	}
	res.WallNS = time.Since(start).Nanoseconds()
	s.cache.Put(j.CacheKey, res)
	return res, nil
}
