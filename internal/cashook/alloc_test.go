//go:build !race

// The race runtime allocates on its own behalf inside the measured
// window, and these pins diff process-wide MemStats, so they hold only
// in non-race builds (the plain go test run keeps them).

package cashook

import (
	"runtime"
	"testing"

	"pmsf/internal/gen"
	"pmsf/internal/obs"
)

// Zero-allocation contract of the bucket loop: all state is allocated in
// newRun (sorted edge copy, hook slots, worker team), so every round() —
// one weight bucket, whether hooked inline or on the team — must run
// without touching the heap.

// roundAllocs runs next() until it reports completion (or maxRounds) and
// returns the per-round heap allocation counts.
func roundAllocs(next func() bool, maxRounds int) []uint64 {
	var out []uint64
	var before, after runtime.MemStats
	for i := 0; i < maxRounds; i++ {
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

// pinRuns is the number of fresh runs each pin takes its per-round
// minimum over.
const pinRuns = 5

// minRoundAllocs runs a fresh round loop pinRuns times and returns each
// round's minimum heap allocation count over the runs. The runtime can
// allocate on its own behalf inside a round: a goroutine that blocks on
// a channel (the join in par.(*Team).Run) takes a sudog from the heap
// when its per-P cache is empty. The minimum filters that out, while a
// round that allocates in every run keeps a nonzero count.
func minRoundAllocs(maxRounds int, fresh func() (round func() bool, done func())) []uint64 {
	var out []uint64
	for i := 0; i < pinRuns; i++ {
		round, done := fresh()
		allocs := roundAllocs(round, maxRounds)
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

// pinZeroAfterWarmup asserts every round after the first allocated
// nothing.
func pinZeroAfterWarmup(t *testing.T, name string, allocs []uint64) {
	t.Helper()
	if len(allocs) < 3 {
		t.Fatalf("%s: only %d rounds ran; input too small to observe a steady state", name, len(allocs))
	}
	for i, a := range allocs[1:] {
		if a != 0 {
			t.Errorf("%s: round %d allocated %d objects (want 0)", name, i+2, a)
		}
	}
}

func TestBorCASRoundZeroAllocs(t *testing.T) {
	// Small-int weights give 8 fat buckets, all beyond parCutoff, so the
	// pin covers the team-dispatch path as well as the inline one.
	g := gen.Reweight(gen.Random(6000, 36000, 11), gen.WeightsSmallInts, 12)
	pinZeroAfterWarmup(t, "Bor-CAS", minRoundAllocs(64, func() (func() bool, func()) {
		r := newRun(g, Options{Workers: 4}, obs.StartUnder(nil, obs.Span{}, "pin", "pin"))
		return r.round, r.close
	}))
}
