//go:build !race

// The race runtime allocates on its own behalf inside the measured
// window, and these pins diff process-wide MemStats, so they hold only
// in non-race builds (the plain go test run keeps them).

package cashook

import (
	"runtime"
	"testing"

	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/par"
)

// Zero-allocation contract of the Filter-Kruskal step loop: all state
// is allocated in newRun (both id buffers, the class bytes, the leaf and
// spare edge buffers, the sort histograms, hook slots, worker team), so
// every step() after the first — a split with its filter pass, or a
// base case with its gather, radix sort and bucket hooks, each on the
// team or inline — must run without touching the heap.

// stepAllocs runs next() until it reports completion (or maxSteps) and
// returns the per-step heap allocation counts.
func stepAllocs(next func() bool, maxSteps int) []uint64 {
	var out []uint64
	var before, after runtime.MemStats
	for i := 0; i < maxSteps; i++ {
		runtime.ReadMemStats(&before)
		ok := next()
		runtime.ReadMemStats(&after)
		if !ok {
			break
		}
		out = append(out, after.Mallocs-before.Mallocs)
	}
	return out
}

// pinRuns is the number of fresh runs each pin takes its per-step
// minimum over.
const pinRuns = 5

// minStepAllocs runs a fresh step loop pinRuns times and returns each
// step's minimum heap allocation count over the runs. The runtime can
// allocate on its own behalf inside a step: a goroutine that blocks on
// a channel (the join in par.(*Team).Run) takes a sudog from the heap
// when its per-P cache is empty. The minimum filters that out, while a
// step that allocates in every run keeps a nonzero count.
func minStepAllocs(maxSteps int, fresh func() (step func() bool, done func())) []uint64 {
	var out []uint64
	for i := 0; i < pinRuns; i++ {
		step, done := fresh()
		allocs := stepAllocs(step, maxSteps)
		done()
		if i == 0 {
			out = allocs
			continue
		}
		out = out[:min(len(out), len(allocs))]
		for j := range out {
			out[j] = min(out[j], allocs[j])
		}
	}
	return out
}

// pinZeroAfterWarmup asserts every step after the first allocated
// nothing.
func pinZeroAfterWarmup(t *testing.T, name string, allocs []uint64) {
	t.Helper()
	if len(allocs) < 3 {
		t.Fatalf("%s: only %d steps ran; input too small to observe a steady state", name, len(allocs))
	}
	for i, a := range allocs[1:] {
		if a != 0 {
			t.Errorf("%s: step %d allocated %d objects (want 0)", name, i+2, a)
		}
	}
}

func TestBorCASRoundZeroAllocs(t *testing.T) {
	uniform := gen.Random(20000, 120000, 11)
	tied := gen.Reweight(gen.Random(6000, 36000, 11), gen.WeightsSmallInts, 12)
	cases := []struct {
		name    string
		g       *graph.EdgeList
		workers int
		cutoff  int
		check   func(*run) bool
	}{
		// Splits and filters of 8K+ edges run on the team, and so do the
		// gathers and radix sorts of the 8K-16K-edge leaves.
		{"team-split-sort", uniform, 4, 1 << 14,
			func(r *run) bool { return r.filtered > 0 && r.sortedEdges >= par.SeqCutoff }},
		// Small-int weights, 4.5K edges a weight: leaves of several
		// weights hook their buckets on the team...
		{"team-bucket", tied, 4, 1 << 14,
			func(r *run) bool { return r.parBuckets > 0 && r.sortedEdges > 0 }},
		// ...and a task beyond a tiny cutoff whose live edges share one
		// weight hooks as one bucket, unsorted, on the team.
		{"team-tied", tied, 4, 1 << 10, func(r *run) bool { return r.parBuckets > 0 && r.tied != nil }},
		// One worker: every pass, sort and hook inline.
		{"inline", uniform, 1, 1 << 12, func(r *run) bool { return r.filtered > 0 }},
		{"inline-tied", tied, 1, 1 << 10, func(r *run) bool { return r.tied != nil && r.sortedEdges > 0 }},
	}
	for _, tc := range cases {
		var last *run
		pinZeroAfterWarmup(t, tc.name, minStepAllocs(1<<12, func() (func() bool, func()) {
			r := newRun(tc.g, Options{Workers: tc.workers, Seed: 5}, obs.Span{}, tc.cutoff)
			last = r
			return r.step, r.close
		}))
		if !tc.check(last) {
			t.Errorf("%s: the pinned steps missed the path they are meant to cover (filtered=%d sorted=%d buckets=%d parallel=%d)",
				tc.name, last.filtered, last.sortedEdges, last.buckets, last.parBuckets)
		}
	}
}
