//go:build !race

// The race runtime allocates on its own behalf inside the measured
// window, and this pin diffs process-wide MemStats, so it holds only in
// non-race builds (the plain go test run keeps it).

package mstbc

import (
	"runtime"
	"testing"

	"pmsf/internal/gen"
)

// TestRunAllocationBudget pins MST-BC's memory contract: the working
// list, its ping-pong spare, the compactor state and every per-level
// buffer are allocated once per run and resliced as levels shrink, so a
// whole run allocates a small multiple of the directed working list
// itself (2m edges of 24 bytes = 48·m bytes). The budget is 4× that;
// allocating per level (fresh sort buffers, labels, scratch) costs
// several times more.
func TestRunAllocationBudget(t *testing.T) {
	const n, m = 50000, 300000
	g := gen.Random(n, m, 1)
	const budget = 4 * 48 * m
	// Best of three: a background allocation in the window can only add.
	var best uint64
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		Run(g, Options{Workers: 2, Seed: uint64(i) + 1})
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; i == 0 || b < best {
			best = b
		}
	}
	t.Logf("%d bytes per run = %.2f × 48·m", best, float64(best)/(48*m))
	if best > budget {
		t.Fatalf("MST-BC allocated %d bytes per run on G(%d, %d) = %.2f × 48·m; budget is 4 × 48·m = %d",
			best, n, m, float64(best)/(48*m), budget)
	}
}
