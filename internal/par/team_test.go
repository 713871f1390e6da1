package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pmsf/internal/obs"
)

func TestTeamRunAllWorkers(t *testing.T) {
	for _, p := range []int{1, 2, 8, 16} {
		team := NewTeam(p)
		seen := make([]int32, p)
		for round := 0; round < 10; round++ {
			team.Run(func(w int) { atomic.AddInt32(&seen[w], 1) })
		}
		team.Close()
		for w, c := range seen {
			if c != 10 {
				t.Fatalf("p=%d: worker %d ran %d phases, want 10", p, w, c)
			}
		}
	}
}

func TestTeamRunIsBarrier(t *testing.T) {
	team := NewTeam(8)
	defer team.Close()
	var counter atomic.Int64
	for round := 1; round <= 20; round++ {
		team.Run(func(int) { counter.Add(1) })
		if got := counter.Load(); got != int64(8*round) {
			t.Fatalf("after round %d: counter %d, want %d", round, got, 8*round)
		}
	}
}

func TestTeamFor(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	const n = 1003
	hits := make([]int32, n)
	team.For(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestTeamCloseIdempotent(t *testing.T) {
	team := NewTeam(3)
	team.Close()
	team.Close() // must not panic
}

func TestTeamRunAfterClosePanics(t *testing.T) {
	team := NewTeam(2)
	team.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Run after Close did not panic")
		}
	}()
	team.Run(func(int) {}) //msf:ignore teamlifecycle this test deliberately runs after Close to pin the panic
}

func TestNewTeamZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewTeam(0)
}

func TestTeamSizeOne(t *testing.T) {
	team := NewTeam(1)
	defer team.Close()
	ran := false
	team.Run(func(w int) {
		if w != 0 {
			t.Errorf("worker id %d", w)
		}
		ran = true
	})
	if !ran {
		t.Fatal("body did not run")
	}
	if team.P() != 1 {
		t.Fatal("P wrong")
	}
}

func TestTeamNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		team := NewTeam(8)
		team.Run(func(int) {})
		team.Close()
	}
	// Give the workers a moment to exit.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestTeamForDynamicCoversAll(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		team := NewTeam(p)
		for _, tc := range []struct{ n, grain int }{
			{0, 16}, {1, 16}, {17, 16}, {1000, 1}, {1000, 7}, {1000, 4096}, {5, 0},
		} {
			hits := make([]int32, tc.n)
			team.ForDynamic(tc.n, tc.grain, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("p=%d n=%d grain=%d: index %d hit %d times", p, tc.n, tc.grain, i, h)
				}
			}
		}
		team.Close()
	}
}

func TestTeamForDynamicIrregular(t *testing.T) {
	// Skewed per-index cost: dynamic chunking must still cover every
	// index exactly once and use more than one worker's chunks.
	team := NewTeam(4)
	defer team.Close()
	const n = 400
	var sum atomic.Int64
	workers := make([]int32, 4)
	team.ForDynamic(n, 8, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			// index 0 is 400x the cost of the rest
			spin := 1
			if i == 0 {
				spin = 400
			}
			for s := 0; s < spin; s++ {
				sum.Add(1)
			}
		}
		atomic.AddInt32(&workers[w], 1)
	})
	if got := sum.Load(); got != n-1+400 {
		t.Fatalf("sum %d, want %d", got, n-1+400)
	}
}

// Every entry point must refuse a closed team from the caller's
// goroutine — the workers are gone, so no body could ever run.
func TestTeamAfterClosePanicsEveryPath(t *testing.T) {
	paths := map[string]func(*Team){
		"Run":         func(tm *Team) { tm.Run(func(int) {}) },
		"For":         func(tm *Team) { tm.For(10, func(_, _, _ int) {}) },
		"ForDynamic":  func(tm *Team) { tm.ForDynamic(10, 2, func(_, _, _ int) {}) },
		"PackIndices": func(tm *Team) { tm.PackIndices(10, func(int) bool { return true }) },
	}
	for name, call := range paths {
		for _, p := range []int{1, 3} {
			team := NewTeam(p)
			team.Close()
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s (p=%d) after Close did not panic", name, p)
					}
				}()
				call(team)
			}()
		}
	}
}

func TestTeamRunPropagatesWorkerPanic(t *testing.T) {
	team := NewTeam(8)
	defer team.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic not propagated")
		}
		if r != "boom-3" {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	team.Run(func(w int) {
		if w == 3 {
			panic("boom-3")
		}
	})
}

func TestTeamRunPropagatesCallerPanicLast(t *testing.T) {
	// Worker 0 runs on the caller; its panic must still wait for all
	// other workers to finish before re-raising.
	team := NewTeam(8)
	defer team.Close()
	var finished atomic.Int32
	defer func() {
		if recover() == nil {
			t.Fatal("panic lost")
		}
		if finished.Load() != 7 {
			t.Fatalf("only %d workers finished before the re-raise", finished.Load())
		}
	}()
	team.Run(func(w int) {
		if w == 0 {
			panic("main-worker")
		}
		finished.Add(1)
	})
}

// A phase in which several workers panic re-raises the lowest worker
// id's value, and the team serves ordinary phases afterwards: every
// worker survives the captured panic and none is re-raised twice.
func TestTeamRunAfterPanic(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		team := NewTeam(p)
		for round := 0; round < 3; round++ {
			func() {
				defer func() {
					if r := recover(); r != p/2 {
						t.Fatalf("p=%d round %d: re-raised %v, want %d", p, round, r, p/2)
					}
				}()
				team.Run(func(w int) {
					if w >= p/2 {
						panic(w)
					}
				})
			}()
			seen := make([]int32, p)
			team.Run(func(w int) { atomic.AddInt32(&seen[w], 1) })
			for w, c := range seen {
				if c != 1 {
					t.Fatalf("p=%d round %d: worker %d ran %d times after a panic", p, round, w, c)
				}
			}
			hits := make([]int32, 100)
			team.ForDynamic(len(hits), 3, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("p=%d round %d: index %d hit %d times after a panic", p, round, i, h)
				}
			}
		}
		team.Close()
	}
}

func TestTeamForDynamicChunkMetrics(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	phases0, chunks0 := obs.ParPhases.Value(), obs.ParChunks.Value()
	const n, grain = 1000, 64
	team.ForDynamic(n, grain, func(_, _, _ int) {})
	if got := obs.ParPhases.Value() - phases0; got != 1 {
		t.Fatalf("phases counted %d, want 1", got)
	}
	want := int64((n + grain - 1) / grain)
	if got := obs.ParChunks.Value() - chunks0; got != want {
		t.Fatalf("chunks counted %d, want %d", got, want)
	}
}

func TestTeamForDynamicZeroAlloc(t *testing.T) {
	// The prebound chunk-claim loop must keep ForDynamic itself off the
	// heap when the body is a reused value.
	team := NewTeam(2)
	defer team.Close()
	body := func(_, _, _ int) {}
	team.ForDynamic(100, 8, body) // warm up
	allocs := testing.AllocsPerRun(50, func() {
		team.ForDynamic(100, 8, body)
	})
	if allocs != 0 {
		t.Fatalf("ForDynamic allocated %.1f objects per call, want 0", allocs)
	}
}
