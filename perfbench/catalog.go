package main

// metricDef is one metric the benchmark reports; BENCHMARK.json at the
// repository root lists the same names, units and directions
// (TestCatalogMatchesBenchmarkJSON keeps the two in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are reported by every untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"x_seq", "x", "higher", 0.25},
	{"x_seq.min", "x", "higher", 0.25},
}

// perLayer are reported by every traced run. A layer the workload does
// not exercise reports 0 (see README.md, "Per-layer metrics").
var perLayer = []metricDef{
	// kernel: internal/sorts, par, cc, uf
	{"kernel.compact_ms", "ms", "lower", 0},
	{"kernel.sort_ms", "ms", "lower", 0},
	{"kernel.radix_passes", "count", "lower", 0},
	{"kernel.scatter_flushes", "count", "lower", 0},
	{"kernel.par_phases", "count", "lower", 0},
	{"kernel.par_scans", "count", "lower", 0},
	{"kernel.sort_elements", "count", "lower", 0},
	// engine: internal/boruvka, mstbc, cashook
	{"engine.borel.setup_ms", "ms", "lower", 0},
	{"engine.borel.findmin_ms", "ms", "lower", 0},
	{"engine.borel.cc_ms", "ms", "lower", 0},
	{"engine.borel.iterations", "count", "lower", 0},
	{"engine.borel.scaling", "x", "higher", 0},
	{"engine.mstbc.setup_ms", "ms", "lower", 0},
	{"engine.mstbc.grow_ms", "ms", "lower", 0},
	{"engine.mstbc.fixup_ms", "ms", "lower", 0},
	{"engine.mstbc.contract_ms", "ms", "lower", 0},
	{"engine.mstbc.levels", "count", "lower", 0},
	{"engine.mstbc.steal_success", "1", "higher", 0},
	{"engine.mstbc.steal_attempts", "count", "lower", 0},
	{"engine.mstbc.scaling", "x", "higher", 0},
	{"engine.borcas.hook_ms", "ms", "lower", 0},
	{"engine.borcas.collect_ms", "ms", "lower", 0},
	{"engine.borcas.scaling", "x", "higher", 0},
	// dynamic: internal/dynmsf, pathmax
	{"dynamic.delete_ms", "ms", "lower", 0},
	{"dynamic.repair_ms", "ms", "lower", 0},
	{"dynamic.insert_ms", "ms", "lower", 0},
	{"dynamic.fallback_ms", "ms", "lower", 0},
	{"dynamic.replacements", "count", "lower", 0},
	{"dynamic.rebuilds", "count", "lower", 0},
	{"dynamic.fallback_recomputes", "count", "lower", 0},
	{"dynamic.links", "count", "lower", 0},
	{"dynamic.swaps", "count", "lower", 0},
	{"dynamic.new_ms", "ms", "lower", 0},
	// serve: internal/serve
	{"serve.patch_overhead_ms", "ms", "lower", 0},
	{"serve.miss_engine_ms", "ms", "lower", 0},
	{"serve.miss_overhead_ms", "ms", "lower", 0},
	{"serve.register_ms", "ms", "lower", 0},
	{"serve.hit_ms_p50", "ms", "lower", 0},
	{"serve.dynread_ms_p50", "ms", "lower", 0},
	{"serve.cache_hit_ratio", "1", "higher", 0},
	{"serve.cache_lookups", "count", "higher", 0},
	{"serve.engine_runs", "count", "lower", 0},
	{"serve.dyn_answers", "count", "higher", 0},
	{"serve.cache_invalidations", "count", "lower", 0},
	{"serve.jobs_rejected", "count", "lower", 0},
	{"serve.rate_limited", "count", "lower", 0},
	{"serve.conflicts", "count", "lower", 0},
	// input: internal/gen, graph
	{"input.gen_ms", "ms", "lower", 0},
	{"input.stream_ms", "ms", "lower", 0},
	// obs + host: diagnostics
	{"obs.trace_overhead", "x", "lower", 0},
	{"obs.metrics_overhead.mstbc", "x", "lower", 0},
	{"obs.metrics_overhead.borel", "x", "lower", 0},
	{"obs.metrics_overhead.borcas", "x", "lower", 0},
	{"host.seq_ref_ms", "ms", "lower", 0},
	{"host.mstbc_ms", "ms", "lower", 0},
	{"host.borel_ms", "ms", "lower", 0},
	{"host.borcas_ms", "ms", "lower", 0},
	{"host.batch_ms", "ms", "lower", 0},
	{"host.patch_ms", "ms", "lower", 0},
	{"host.miss_ms", "ms", "lower", 0},
}
