//go:build !race

// The race runtime allocates on its own behalf inside the measured
// window, and these pins diff process-wide MemStats, so they hold only
// in non-race builds (the plain go test run keeps them).

package writemin

import (
	"runtime"
	"testing"

	"pmsf/internal/gen"
)

// Zero-allocation contract of the round loop: all state is allocated in
// newRun (ranked edge copy, ping-pong spare, best slots, harvest
// buffers, worker team), so every round() must run without touching the
// heap once the resolver's lazily grown buffers have warmed up.

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

func TestBorWMRoundZeroAllocs(t *testing.T) {
	g := gen.Random(6000, 36000, 11)
	r := newRun(g, Options{Workers: 4})
	defer r.close()
	pinZeroAfterWarmup(t, "Bor-WM", roundAllocs(r.round, 64))
}
