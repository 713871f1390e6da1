package main

import (
	"fmt"
	"time"

	"pmsf"
)

// mirror is the benchmark's own copy of the live edge set under a
// sliding-window stream: the base edges followed by every addition,
// minus a prefix, because the stream always deletes its oldest live
// edges. The yardstick runs on it to check the batches.
type mirror struct {
	n     int
	edges []pmsf.Edge
	head  int // edges[head:] are live
}

func newMirror(g *pmsf.Graph) *mirror {
	return &mirror{n: g.N, edges: append([]pmsf.Edge(nil), g.Edges...)}
}

// apply adds a batch, then retires its deletions from the front.
func (m *mirror) apply(add, del []pmsf.Edge) error {
	m.edges = append(m.edges, add...)
	for i, d := range del {
		if m.head >= len(m.edges) || m.edges[m.head] != d {
			return fmt.Errorf("mirror: deletion %d is not the oldest live edge", i)
		}
		m.head++
	}
	if m.head > len(m.edges)/2 {
		m.edges = append(m.edges[:0:0], m.edges[m.head:]...)
		m.head = 0
	}
	return nil
}

func (m *mirror) graph() *pmsf.Graph { return pmsf.NewGraph(m.n, m.edges[m.head:]) }

type dynEnv struct {
	stream *pmsf.EdgeStream
	h      *pmsf.Dynamic
	traced *pmsf.Dynamic // traced runs: a twin handle recording spans
	tr     *pmsf.Trace
	live   *mirror
	next   int
}

// dynSetup generates the base graph and its mutation stream, seeds the
// dynamic handle with MST-BC (the engine the served PATCH path seeds
// with) and applies one checked warm-up batch.
func dynSetup(cfg config, res *result) (*dynEnv, time.Duration, error) {
	start := time.Now()
	env := &dynEnv{}
	op := res.rec.op()
	var g *pmsf.Graph
	res.set("input.gen_ms", ms(res.rec.span(op, "input", "random-graph", func() {
		g = pmsf.RandomGraph(cfg.sizes.n, cfg.sizes.m, cfg.seed)
	})))
	// More batches than the run can apply at full scale; a tiny run
	// stops when the stream is used up.
	batches := int(cfg.seconds*8) + 8
	res.set("input.stream_ms", ms(res.rec.span(op, "input", "sliding-window", func() {
		env.stream = pmsf.SlidingWindowMutations(g, batches*cfg.sizes.dynBatch, 0, cfg.sizes.dynBatch, cfg.seed+1)
	})))
	var err error
	opt := pmsf.Options{Workers: workers, Seed: cfg.seed}
	res.set("dynamic.new_ms", ms(res.rec.span(op, "dynamic", "new-dynamic", func() {
		env.h, err = pmsf.NewDynamic(g, pmsf.MSTBC, opt)
	})))
	if !res.check(err) {
		return nil, 0, err
	}
	if cfg.trace {
		env.tr = pmsf.NewTrace()
		opt.Trace = env.tr
		if env.traced, err = pmsf.NewDynamic(g, pmsf.MSTBC, opt); !res.check(err) {
			return nil, 0, err
		}
	}
	env.live = newMirror(g)
	if _, err := env.step(res, 1); err != nil {
		return nil, 0, err
	}
	return env, time.Since(start), nil
}

// dynStep is one applied batch: its time on the measured handle, the
// delta, the yardstick's time on the resulting live graph (0 when this
// batch is not checked) and, on traced runs, its time on the twin.
type dynStep struct {
	batch, seq, traced time.Duration
	delta              pmsf.DynamicDelta
}

// step applies the next batch to the handle(s). Every seqEvery-th
// batch, and the last one, each delta is checked against the
// yardstick's forest of the live graph; the deltas are cumulative, so a
// wrong batch in between still shows. A batch the library rejects ends
// the stream: the handle and the mirror no longer agree.
func (env *dynEnv) step(res *result, seqEvery int) (dynStep, error) {
	b := env.stream.Batches[env.next]
	env.next++
	var s dynStep
	var errA, errB error
	var dB pmsf.DynamicDelta
	op := res.rec.op()
	applyA := func() {
		cleanHeap()
		s.batch = timed(func() { s.delta, errA = env.h.ApplyEdges(b.Add, b.Del) })
	}
	applyB := func() {
		cleanHeap()
		s.traced = res.rec.span(op, "dynamic", "apply-edges", func() { dB, errB = env.traced.ApplyEdges(b.Add, b.Del) })
	}
	switch {
	case env.traced == nil:
		applyA()
	case env.next%2 == 0:
		applyA()
		applyB()
	default:
		applyB()
		applyA()
	}
	if err := env.live.apply(b.Add, b.Del); err != nil {
		res.check(err)
		return s, err
	}
	check := errA != nil || errB != nil || env.next%seqEvery == 0 || env.next == len(env.stream.Batches)
	if !check {
		return s, nil
	}
	cleanHeap()
	var f *pmsf.Forest
	s.seq = res.rec.span(op, "yardstick", "prim", func() { f = yardstick(env.live.graph()) })
	if errA == nil {
		errA = answer{s.delta.Weight, s.delta.ForestSize, s.delta.Components}.against(f, "batch")
	}
	if !res.check(errA) {
		return s, errA
	}
	if env.traced != nil {
		if errB == nil {
			errB = answer{dB.Weight, dB.ForestSize, dB.Components}.against(f, "traced batch")
		}
		if !res.check(errB) {
			return s, errB
		}
	}
	return s, nil
}

// runDynamic pushes the stream through ApplyEdges, timing every batch,
// and the yardstick on the live graph after every seqEvery-th one. The
// run ends on a checked batch, so every applied batch is verified.
func runDynamic(cfg config, res *result) error {
	env, setups, err := setUp(cfg, func() (*dynEnv, time.Duration, error) { return dynSetup(cfg, res) },
		func(*dynEnv) {})
	if err != nil {
		return fmt.Errorf("dynamic-window setup: %w", err)
	}

	var batchMS, seqMS, overhead []float64
	var sum pmsf.DynamicDelta
	rss := watchRSS()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for env.next < len(env.stream.Batches) {
		s, err := env.step(res, cfg.sizes.seqEvery)
		if err != nil {
			break
		}
		batchMS = append(batchMS, ms(s.batch))
		if s.seq > 0 {
			seqMS = append(seqMS, ms(s.seq))
		}
		if env.traced != nil {
			overhead = append(overhead, ms(s.traced)/ms(s.batch))
		}
		sum.Replacements += s.delta.Replacements
		sum.Rebuilds += s.delta.Rebuilds
		sum.FallbackRecomputes += s.delta.FallbackRecomputes
		sum.Links += s.delta.Links
		sum.Swaps += s.delta.Swaps
		if s.seq > 0 && !time.Now().Before(deadline) {
			break
		}
	}
	res.set("peak_rss_mb", rss())
	if len(seqMS) == 0 {
		return fmt.Errorf("dynamic-window: no batch checked")
	}
	// Batch costs vary several fold with what a batch cuts, so the
	// ratio is of medians over the run rather than a median of pairs.
	x := res.opResult("batch", median(seqMS)/median(batchMS), batchMS, seqMS)
	res.set("host.batch_ms", median(batchMS))
	res.set("host.seq_ref_ms", median(seqMS))
	res.setEndToEnd(setups, median(seqMS), []float64{x})
	if env.traced == nil {
		return nil
	}
	n := float64(len(batchMS))
	res.set("obs.trace_overhead", median(overhead))
	res.set("dynamic.replacements", float64(sum.Replacements)/n)
	res.set("dynamic.rebuilds", float64(sum.Rebuilds)/n)
	res.set("dynamic.fallback_recomputes", float64(sum.FallbackRecomputes)/n)
	res.set("dynamic.links", float64(sum.Links)/n)
	res.set("dynamic.swaps", float64(sum.Swaps)/n)
	// The twin's collector also holds its MST-BC seed run and the
	// warm-up batch; phase times are per batch over every batch it saw.
	v := viewOf(env.tr)
	perBatch := float64(v.count["apply-batch"])
	for _, phase := range []string{"delete", "repair", "insert", "fallback"} {
		res.set("dynamic."+phase+"_ms", v.ms(phase)/perBatch)
	}
	return nil
}
