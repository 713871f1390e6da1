//go:build !race

// The race runtime allocates on its own behalf inside the measured
// window, and these pins diff process-wide MemStats, so they hold only
// in non-race builds (the plain go test run keeps them).

package boruvka

import (
	"runtime"
	"testing"

	"pmsf/internal/gen"
)

// Zero-allocation contract of the workspace-threaded round loops: after
// the first round has warmed the lazily grown buffers (resolver spare,
// grouper count slab), every further round must run without touching
// the heap. Bor-EL (two-level radix engine), Bor-ALM and Bor-FAL are pinned
// at exactly zero; plain Bor-AL intentionally allocates per round (it
// is the paper's shared-heap ablation baseline against Bor-ALM), and
// Bor-ALM's per-worker sort scratch may grow geometrically as merged
// adjacency lists lengthen mid-run, so its pin tolerates the rare
// capacity-growth round and requires every other round to be clean.

// roundAllocs runs next() until it reports completion (or maxRounds)
// and returns the per-round heap allocation counts.
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
// nothing. tolerate is the number of non-clean steady-state rounds
// accepted (Bor-ALM capacity growth); pass 0 for a strict pin.
func pinZeroAfterWarmup(t *testing.T, name string, allocs []uint64, tolerate int) {
	t.Helper()
	if len(allocs) < 3 {
		t.Fatalf("%s: only %d rounds ran; input too small to observe a steady state", name, len(allocs))
	}
	dirty := 0
	for i, a := range allocs[1:] {
		if a != 0 {
			dirty++
			if dirty > tolerate {
				t.Errorf("%s: round %d allocated %d objects (want 0)", name, i+2, a)
			}
		}
	}
}

func TestELRoundZeroAllocs(t *testing.T) {
	g := gen.Random(6000, 36000, 11)
	pinZeroAfterWarmup(t, "Bor-EL", minRoundAllocs(64, func() (func() bool, func()) {
		r := newELRun(g, Options{Workers: 4})
		return r.round, r.ws.Close
	}), 0)
}

func TestALMRoundZeroAllocs(t *testing.T) {
	g := gen.Random(6000, 36000, 11)
	pinZeroAfterWarmup(t, "Bor-ALM", minRoundAllocs(64, func() (func() bool, func()) {
		r := newALRun(g, Options{Workers: 4}, true, "Bor-ALM")
		return r.round, r.ws.Close
	}), 2)
}

func TestFALRoundZeroAllocs(t *testing.T) {
	g := gen.Random(6000, 36000, 11)
	pinZeroAfterWarmup(t, "Bor-FAL", minRoundAllocs(64, func() (func() bool, func()) {
		r := newFALRun(g, Options{Workers: 4})
		return r.round, r.ws.Close
	}), 0)
}
