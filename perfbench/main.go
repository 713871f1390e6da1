// Command perfbench is the repository's benchmark: three workloads
// (static-random, dynamic-window, serve-mixed) that drive the public
// library and the HTTP service, score every heavy operation as a
// speedup over a frozen sequential yardstick timed beside it, check
// every answer against that yardstick's forest, and print one JSON
// result line. See README.md in this directory.
//
//	bash perfbench/run.sh --workload static-random --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"pmsf"
)

// workers is p for every engine run and the dynamic seed engine.
const workers = 2

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sizes    sizes
	out      string
}

// sizes are the input shapes of one benchmark scale.
type sizes struct {
	n, m       int // static graph, dynamic base graph, served "big"
	smallN     int // served "small"
	smallM     int
	dynBatch   int // additions per dynamic-window batch (each with as many deletions)
	patchBatch int // additions per served PATCH
	missEvery  int // the reader sends one uncached query per missEvery requests
	seqEvery   int // dynamic-window runs the yardstick after every seqEvery-th batch
	// patchEvery paces the serve-mixed writer: one PATCH cycle per
	// patchEvery at most, so every run makes the same number of PATCHes
	// and peak RSS (each finished job pins its graph snapshot until the
	// queue's job history evicts it) counts the same work.
	patchEvery time.Duration
	setupReps  int // untraced runs set up this many times and report the median
}

var scales = map[string]sizes{
	// G(n, 6n): the paper's G1 density at 1/5 of its n = 1M.
	"full": {n: 200_000, m: 1_200_000, smallN: 20_000, smallM: 120_000,
		dynBatch: 1000, patchBatch: 100, missEvery: 40, seqEvery: 4, patchEvery: time.Second, setupReps: 3},
	// tiny keeps every code path and metric; the smoke test runs it.
	"tiny": {n: 3_000, m: 18_000, smallN: 600, smallM: 3_600,
		dynBatch: 60, patchBatch: 20, missEvery: 8, seqEvery: 2, setupReps: 2},
}

var workloads = map[string]func(config, *result) error{
	"static-random":  runStatic,
	"dynamic-window": runDynamic,
	"serve-mixed":    runServe,
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res := newResult(cfg)
	if err := workloads[cfg.workload](cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(res.finish(os.Stdout))
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "static-random, dynamic-window or serve-mixed")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 15, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced (per-layer) run")
	scale := fs.String("scale", "full", "input scale: full or tiny")
	out := fs.String("out", "", "directory for the run record and spans (empty: none)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if workloads[*workload] == nil {
		return config{}, fmt.Errorf("unknown workload %q", *workload)
	}
	sz, ok := scales[*scale]
	if !ok {
		return config{}, fmt.Errorf("unknown scale %q", *scale)
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		return config{}, errors.New("want --trace 0|1 and --seconds > 0")
	}
	return config{workload: *workload, seed: *seed, seconds: *seconds,
		trace: *trace == 1, sizes: sz, out: *out}, nil
}

// result accumulates one run's accounting, metrics and record.
type result struct {
	mu        sync.Mutex // guards the accounting: serve-mixed checks from two clients
	cfg       config
	rec       *recorder
	attempted int
	failed    int
	mismatch  bool
	reasons   map[string]int
	examples  []string
	metrics   map[string]float64
	detail    []string       // human-readable named results
	raw       map[string]any // host and drift record
}

func newResult(cfg config) *result {
	r := &result{cfg: cfg, reasons: map[string]int{}, metrics: map[string]float64{},
		raw: map[string]any{}}
	if cfg.trace {
		r.rec = newRecorder()
	}
	return r
}

// setUp runs setup cfg.sizes.setupReps times (once on traced runs,
// which report no setup_s) and returns the last environment with every
// setup's duration in seconds. Each earlier environment is released
// before the next setup, so only the last one is measured; on error the
// failed setup's environment is returned for the caller to release.
func setUp[E any](cfg config, setup func() (E, time.Duration, error), release func(E)) (E, []float64, error) {
	reps := cfg.sizes.setupReps
	if cfg.trace {
		reps = 1
	}
	var env E
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			release(env)
			var zero E
			env = zero
		}
		cleanHeap()
		e, d, err := setup()
		if err != nil {
			return e, secs, err
		}
		env, secs = e, append(secs, d.Seconds())
	}
	return env, secs, nil
}

// failure is an error with its accounting kind: "http <code>" (a
// non-2xx response) or "oracle" (an answer disagreed with the
// yardstick). Any other error counts as kind "error".
type failure struct {
	kind string
	err  error
}

func (f *failure) Error() string { return f.kind + ": " + f.err.Error() }

func oracleErr(format string, a ...any) error {
	return &failure{kind: "oracle", err: fmt.Errorf(format, a...)}
}

// check counts one attempted operation and, when err is non-nil, one
// failure with its reason. It reports whether the operation succeeded.
func (r *result) check(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	kind := "error"
	var f *failure
	if errors.As(err, &f) {
		kind = f.kind
	}
	if kind == "oracle" {
		r.mismatch = true
	}
	r.reasons[kind]++
	if len(r.examples) < 8 {
		r.examples = append(r.examples, err.Error())
	}
	return false
}

// answer is the part of a forest the oracle compares.
type answer struct {
	weight     float64
	size       int
	components int
}

func answerOf(f *pmsf.Forest) answer { return answer{f.Weight, f.Size(), f.Components} }

// against compares an answer with the yardstick's forest: equal size and
// component count, and weight equal up to summation-order rounding.
func (a answer) against(want *pmsf.Forest, what string) error {
	w := answerOf(want)
	if a.size != w.size || a.components != w.components ||
		math.Abs(a.weight-w.weight) > 1e-9*math.Max(1, math.Abs(w.weight)) {
		return oracleErr("%s: weight %.12g size %d components %d, yardstick %.12g %d %d",
			what, a.weight, a.size, a.components, w.weight, w.size, w.components)
	}
	return nil
}

// set records a metric value.
func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) detailf(format string, a ...any) {
	r.detail = append(r.detail, fmt.Sprintf(format, a...))
}

// opResult reports one heavy operation: its x_seq ratio with both raw
// medians behind it, so host drift can be told from a code change.
func (r *result) opResult(op string, x float64, opMS, seqMS []float64) float64 {
	r.raw["x_seq."+op] = map[string]any{"x": x, "op_ms": median(opMS), "seq_ms": median(seqMS),
		"op_samples": len(opMS), "seq_samples": len(seqMS),
		"op_ms_p25": quantile(opMS, 0.25), "op_ms_p75": quantile(opMS, 0.75)}
	r.detailf("x_seq.%-8s %8.4f x   (yardstick %.1f ms, n=%d / op %.1f ms, n=%d)",
		op, x, median(seqMS), len(seqMS), median(opMS), len(opMS))
	return x
}

// latency reports a read latency distribution: p50 and the highest
// percentile with at least ten samples beyond it.
func (r *result) latency(name string, xs []float64) {
	rec := map[string]any{"samples": len(xs), "p50_ms": median(xs)}
	line := fmt.Sprintf("%-16s p50 %.3f ms", name, median(xs))
	if q, v, ok := tailQuantile(xs); ok {
		rec[q+"_ms"] = v
		line += fmt.Sprintf("  %s %.3f ms", q, v)
	}
	r.raw[name] = rec
	r.detailf("%s   (%d samples)", line, len(xs))
}

// refSeqMS is the yardstick's time on G(200k, 1.2M) on the 2-vCPU host
// the bounds were set on; setup_s is expressed in that host's seconds.
const refSeqMS = 210.0

// setEndToEnd fills the end-to-end metrics. setup_s is the median setup
// wall time scaled by refSeqMS / the run's median yardstick time (seqMS),
// so host drift cancels in it as it does in the x_seq ratios (a busy
// shared host has slowed every raw time by up to 2x for an hour). xs are
// the workload's per-op x_seq ratios.
func (r *result) setEndToEnd(setups []float64, seqMS float64, xs []float64) {
	r.set("setup_s", median(setups)*refSeqMS/seqMS)
	r.raw["setup_s_raw"] = map[string]any{"median": median(setups), "samples": setups}
	r.set("x_seq", geomean(xs))
	lo := xs[0]
	for _, x := range xs[1:] {
		lo = min(lo, x)
	}
	r.set("x_seq.min", lo)
}

// finish prints the named results and the JSON result line, writes the
// run record, and returns the exit code: 1 after any failed operation.
func (r *result) finish(w *os.File) int {
	host := map[string]any{
		"workload": r.cfg.workload, "seed": r.cfg.seed, "seconds": r.cfg.seconds,
		"trace": r.cfg.trace, "gomaxprocs": runtime.GOMAXPROCS(0), "numcpu": runtime.NumCPU(),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH, "workers": workers,
	}
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v gomaxprocs=%d numcpu=%d %s\n", r.cfg.workload,
		r.cfg.seed, r.cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	for _, line := range r.detail {
		fmt.Fprintln(w, "  "+line)
	}

	defs := endToEnd
	if r.cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	var unmeasured []string
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		metrics[d.Name] = value{v, d.Unit}
		fmt.Fprintf(w, "  %-30s %14.6g %s", d.Name, v, d.Unit)
		if !ok {
			unmeasured = append(unmeasured, d.Name)
			fmt.Fprintf(w, "   (0: layer not exercised by %s)", r.cfg.workload)
		}
		fmt.Fprintln(w)
	}
	r.raw["not_exercised"] = unmeasured
	if r.failed > 0 {
		reasons := make([]string, 0, len(r.reasons))
		for k, n := range r.reasons {
			reasons = append(reasons, fmt.Sprintf("%s=%d", k, n))
		}
		sort.Strings(reasons)
		fmt.Fprintf(w, "  FAILED %d of %d: %s\n", r.failed, r.attempted, strings.Join(reasons, " "))
		for _, e := range r.examples {
			fmt.Fprintln(w, "    "+e)
		}
	}
	fmt.Fprintf(w, "  failed_share %.6g (%d of %d ops)\n", float64(r.failed)/float64(max(1, r.attempted)), r.failed, r.attempted)

	if r.cfg.out != "" {
		if err := r.writeRecord(host); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing record:", err)
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": !r.mismatch && r.failed == 0, "attempted": r.attempted,
		"failed": r.failed, "metrics": metrics,
	})
	fmt.Fprintln(w, string(line))
	if r.failed > 0 {
		return 1
	}
	return 0
}

func (r *result) writeRecord(host map[string]any) error {
	if err := os.MkdirAll(r.cfg.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(r.cfg.out, fmt.Sprintf("%s-seed%d-trace%d", r.cfg.workload, r.cfg.seed, b2i(r.cfg.trace)))
	data, err := json.MarshalIndent(map[string]any{
		"host": host, "raw": r.raw, "metrics": r.metrics,
		"attempted": r.attempted, "failed": r.failed, "failure_reasons": r.reasons,
		"failure_examples": r.examples, "written": time.Now().UTC().Format(time.RFC3339),
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", data, 0o644); err != nil {
		return err
	}
	return r.rec.write(base + "-spans.json")
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
