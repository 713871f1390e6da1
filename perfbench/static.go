package main

import (
	"time"

	"pmsf"
)

// engine is one static MSF engine the benchmark scores.
type engine struct {
	key  string
	algo pmsf.Algorithm
}

var engines = []engine{{"mstbc", pmsf.MSTBC}, {"borel", pmsf.BorEL}, {"borcas", pmsf.BorCAS}}

type staticEnv struct {
	g      *pmsf.Graph
	oracle *pmsf.Forest
}

// staticSetup generates the graph, computes the oracle forest and warms
// every engine up once.
func staticSetup(cfg config, res *result) (*staticEnv, time.Duration, error) {
	start := time.Now()
	env := &staticEnv{}
	op := res.rec.op()
	gen := res.rec.span(op, "input", "random-graph", func() {
		env.g = pmsf.RandomGraph(cfg.sizes.n, cfg.sizes.m, cfg.seed)
	})
	res.set("input.gen_ms", ms(gen))
	res.rec.span(op, "yardstick", "prim", func() { env.oracle = yardstick(env.g) })
	for _, e := range engines {
		env.run(res, e, pmsf.Options{Workers: workers, Seed: cfg.seed}, nil)
	}
	return env, time.Since(start), nil
}

// run times one checked engine run.
func (env *staticEnv) run(res *result, e engine, opt pmsf.Options, rec *recorder) time.Duration {
	cleanHeap()
	var f *pmsf.Forest
	var err error
	d := rec.span(rec.op(), "engine", e.algo.String(), func() {
		f, _, err = pmsf.MinimumSpanningForest(env.g, e.algo, opt)
	})
	if err == nil {
		err = answerOf(f).against(env.oracle, e.algo.String())
	}
	res.check(err)
	return d
}

// seq times one yardstick run on the graph.
func (env *staticEnv) seq(rec *recorder) time.Duration {
	cleanHeap()
	return rec.span(rec.op(), "yardstick", "prim", func() { yardstick(env.g) })
}

// roundOrder is one round of engine runs (indices into engines). The
// shorter runs repeat so that each engine gets a similar share of the
// run's time, and so a similar number of samples per second of noise.
var roundOrder = []int{0, 1, 2, 1, 2, 2}

// runStatic: rounds of yardstick, MST-BC, yardstick, Bor-EL, yardstick,
// Bor-CAS, ... (see roundOrder). Each engine time is divided into the
// mean of the two yardstick runs around it. A traced run alternates
// untraced rounds with rounds that trace the engines, then makes one
// counter pass and one p = 1 pass per engine.
func runStatic(cfg config, res *result) error {
	env, setups, _ := setUp(cfg, func() (*staticEnv, time.Duration, error) { return staticSetup(cfg, res) },
		func(*staticEnv) {})

	opt := pmsf.Options{Workers: workers}
	type samples struct {
		x, opMS, tracedX []float64
		views            []phaseView // one per traced run
	}
	per := make([]samples, len(engines))
	var seqMS []float64
	minRounds := 1
	if cfg.trace {
		minRounds = 2
	}
	rss := watchRSS()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		traced := cfg.trace && round%2 == 1
		var rec *recorder
		if traced {
			rec = res.rec
		}
		prev := env.seq(rec)
		if !traced {
			seqMS = append(seqMS, ms(prev))
		}
		for j, i := range roundOrder {
			// A fresh engine seed per run: MST-BC's time moves by several
			// percent with its claim-order seed, and the median should
			// average that out, not pick one seed's value.
			o := opt
			o.Seed = cfg.seed<<16 + uint64(round*len(roundOrder)+j)
			if traced {
				o.Trace = pmsf.NewTrace()
			}
			d := env.run(res, engines[i], o, rec)
			next := env.seq(rec)
			x := ms(prev+next) / 2 / ms(d)
			if traced {
				per[i].tracedX = append(per[i].tracedX, x)
				per[i].views = append(per[i].views, viewOf(o.Trace))
			} else {
				per[i].x = append(per[i].x, x)
				per[i].opMS = append(per[i].opMS, ms(d))
				seqMS = append(seqMS, ms(next))
			}
			prev = next
		}
	}

	res.set("peak_rss_mb", rss())

	var xs []float64
	for i, e := range engines {
		x := res.opResult(e.key, median(per[i].x), per[i].opMS, seqMS)
		res.raw["x_seq."+e.key+".samples"] = per[i].x
		xs = append(xs, x)
		res.set("host."+e.key+"_ms", median(per[i].opMS))
	}
	res.set("host.seq_ref_ms", median(seqMS))
	res.setEndToEnd(setups, median(seqMS), xs)
	if cfg.trace {
		var overheads []float64
		for _, p := range per {
			overheads = append(overheads, median(p.x)/median(p.tracedX))
		}
		res.set("obs.trace_overhead", geomean(overheads))
		views := make([][]phaseView, len(engines))
		for i, p := range per {
			views[i] = p.views
		}
		staticLayers(cfg, res, env, views)
	}
	return nil
}

// staticLayers fills the per-layer metrics of a traced static run.
// views[i] holds one phase view per traced run of engines[i]; each
// phase metric is the median over them.
func staticLayers(cfg config, res *result, env *staticEnv, views [][]phaseView) {
	pick := func(engineIdx int, f func(phaseView) float64) float64 {
		var xs []float64
		for _, v := range views[engineIdx] {
			xs = append(xs, f(v))
		}
		return median(xs)
	}
	const mst, borel, borcas = 0, 1, 2
	// compact-graph's own children are kernel spans too: report its
	// whole duration, self plus children.
	res.set("kernel.compact_ms", pick(borel, func(v phaseView) float64 {
		return ms(v.total["compact-graph"])
	}))
	res.set("kernel.sort_ms", pick(mst, func(v phaseView) float64 { return v.ms("sort") })+
		pick(borcas, func(v phaseView) float64 { return v.ms("sort") }))
	res.set("engine.borel.setup_ms", pick(borel, func(v phaseView) float64 { return v.ms("setup") }))
	res.set("engine.borel.findmin_ms", pick(borel, func(v phaseView) float64 { return v.ms("find-min") }))
	res.set("engine.borel.cc_ms", pick(borel, func(v phaseView) float64 { return v.ms("connect-components") }))
	res.set("engine.borel.iterations", pick(borel, func(v phaseView) float64 { return float64(v.count["iteration"]) }))
	res.set("engine.mstbc.setup_ms", pick(mst, func(v phaseView) float64 { return v.ms("setup") }))
	res.set("engine.mstbc.grow_ms", pick(mst, func(v phaseView) float64 { return v.ms("grow") }))
	res.set("engine.mstbc.fixup_ms", pick(mst, func(v phaseView) float64 { return v.ms("fixup") }))
	res.set("engine.mstbc.contract_ms", pick(mst, func(v phaseView) float64 { return v.ms("contract") }))
	res.set("engine.mstbc.levels", pick(mst, func(v phaseView) float64 { return float64(v.count["level"]) }))
	res.set("engine.borcas.hook_ms", pick(borcas, func(v phaseView) float64 { return v.ms("hook") }))
	res.set("engine.borcas.collect_ms", pick(borcas, func(v phaseView) float64 { return v.ms("collect") }))

	// Counter pass: the process-wide counters slow the engines several
	// fold, so they get runs of their own, each next to a plain run
	// (for the overhead) and a p = 1 run (for the scaling).
	kernel := map[string]int64{}
	for _, e := range engines {
		opt := pmsf.Options{Workers: workers, Seed: cfg.seed}
		plain := env.run(res, e, opt, nil)
		before := pmsf.Metrics().Snapshot()
		mopt := opt
		mopt.Metrics = true
		counted := env.run(res, e, mopt, nil)
		after := pmsf.Metrics().Snapshot()
		for k, v := range after {
			kernel[k] += v - before[k]
		}
		if e.key == "mstbc" {
			att, succ := after["steal_attempts"]-before["steal_attempts"], after["steal_successes"]-before["steal_successes"]
			res.set("engine.mstbc.steal_attempts", float64(att))
			if att > 0 {
				res.set("engine.mstbc.steal_success", float64(succ)/float64(att))
			}
		}
		res.set("obs.metrics_overhead."+e.key, ms(counted)/ms(plain))
		sopt := opt
		sopt.Workers = 1
		res.set("engine."+e.key+".scaling", ms(env.run(res, e, sopt, nil))/ms(plain))
	}
	for _, k := range []string{"radix_passes", "scatter_flushes", "par_phases", "par_scans", "sort_elements"} {
		res.set("kernel."+k, float64(kernel[k]))
	}
}
