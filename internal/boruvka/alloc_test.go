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
// the heap. Bor-EL (packed-key engine), Bor-ALM and Bor-FAL are pinned
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
	r := newELRun(g, Options{Workers: 4})
	defer r.ws.Close()
	pinZeroAfterWarmup(t, "Bor-EL", roundAllocs(r.round, 64), 0)
}

func TestALMRoundZeroAllocs(t *testing.T) {
	g := gen.Random(6000, 36000, 11)
	r := newALRun(g, Options{Workers: 4}, true, "Bor-ALM")
	defer r.ws.Close()
	pinZeroAfterWarmup(t, "Bor-ALM", roundAllocs(r.round, 64), 2)
}

func TestFALRoundZeroAllocs(t *testing.T) {
	g := gen.Random(6000, 36000, 11)
	r := newFALRun(g, Options{Workers: 4})
	defer r.ws.Close()
	pinZeroAfterWarmup(t, "Bor-FAL", roundAllocs(r.round, 64), 0)
}
