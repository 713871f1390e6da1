package bench

import (
	"fmt"

	"pmsf"
	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/obs"
)

// ProfileConfig configures a single traced run (the msf-bench -algo
// path).
type ProfileConfig struct {
	Algo    string // paper-style algorithm name, e.g. "Bor-FAL"
	Scale   Scale
	Ratio   int // edges = Ratio × n for the random input; 0 means 3
	Seed    uint64
	Workers int    // 0 means GOMAXPROCS
	Metrics bool   // enable process-wide counters for the run
	Sort    string // Bor-EL compact-graph engine name; "" means the default
}

// ProfileResult is the artifact bundle of one traced run.
type ProfileResult struct {
	Algorithm pmsf.Algorithm
	Graph     *graph.EdgeList
	Forest    *graph.Forest
	Trace     *obs.Collector
	Summary   *obs.Summary
}

// ProfileRun runs one algorithm on a random input with full span tracing
// and returns the trace and its summary. The counters in the summary are
// only populated when cfg.Metrics is set (they are reset at the start of
// the run so the summary describes this run alone).
func ProfileRun(cfg ProfileConfig) (*ProfileResult, error) {
	algo, err := pmsf.ParseAlgorithm(cfg.Algo)
	if err != nil {
		return nil, err
	}
	var engine pmsf.SortEngine
	if cfg.Sort != "" {
		engine, err = pmsf.ParseSortEngine(cfg.Sort)
		if err != nil {
			return nil, err
		}
	}
	ratio := cfg.Ratio
	if ratio <= 0 {
		ratio = 3
	}
	n := cfg.Scale.BaseN()
	g := gen.Random(n, ratio*n, cfg.Seed)

	var reg *obs.Registry
	if cfg.Metrics {
		reg = obs.Default()
		reg.Reset()
	}
	tr := obs.NewCollector()
	f, _, err := pmsf.MinimumSpanningForest(g, algo, pmsf.Options{
		Workers: cfg.Workers, Seed: cfg.Seed, Trace: tr, Metrics: cfg.Metrics,
		SortEngine: engine,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: profile run failed: %w", err)
	}
	return &ProfileResult{
		Algorithm: algo,
		Graph:     g,
		Forest:    f,
		Trace:     tr,
		Summary:   tr.Summarize(reg),
	}, nil
}
