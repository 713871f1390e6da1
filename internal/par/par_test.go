package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSplitProperties(t *testing.T) {
	f := func(n, p uint8) bool {
		ranges := Split(int(n), int(p))
		wantP := int(p)
		if wantP < 1 {
			wantP = 1
		}
		if len(ranges) != wantP {
			return false
		}
		// Contiguous cover of [0, n), sizes differ by at most 1.
		pos, minLen, maxLen := 0, int(n)+1, -1
		for _, r := range ranges {
			if r.Lo != pos || r.Hi < r.Lo {
				return false
			}
			pos = r.Hi
			if l := r.Len(); l < minLen {
				minLen = l
			}
			if l := r.Len(); l > maxLen {
				maxLen = l
			}
		}
		return pos == int(n) && maxLen-minLen <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ p, n, want int }{
		{0, 10, 1}, {-3, 10, 1}, {4, 10, 4}, {20, 10, 10}, {4, 0, 4}, {0, 0, 1},
	}
	for _, c := range cases {
		if got := Clamp(c.p, c.n); got != c.want {
			t.Errorf("Clamp(%d,%d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 7, 100, 1000} {
			hits := make([]int32, n)
			For(p, n, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("p=%d n=%d: index %d hit %d times", p, n, i, h)
				}
			}
		}
	}
}

func TestForDynamicCoversEveryIndexOnce(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		for _, grain := range []int{1, 3, 64, 10_000} {
			const n = 1000
			hits := make([]int32, n)
			ForDynamic(p, n, grain, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("p=%d grain=%d: index %d hit %d times", p, grain, i, h)
				}
			}
		}
	}
}

func TestDoRunsAllWorkers(t *testing.T) {
	for _, p := range []int{1, 2, 16} {
		seen := make([]int32, p)
		Do(p, func(w int) { atomic.AddInt32(&seen[w], 1) })
		for w, c := range seen {
			if c != 1 {
				t.Fatalf("p=%d: worker %d ran %d times", p, w, c)
			}
		}
	}
}

func TestReduceInt64(t *testing.T) {
	const n = 12345
	got := ReduceInt64(7, n, func(_, lo, hi int) int64 {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		return s
	})
	want := int64(n) * (n - 1) / 2
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}

func TestDoPropagatesWorkerPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic not propagated")
		}
		if r != "boom-3" {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	Do(8, func(w int) {
		if w == 3 {
			panic("boom-3")
		}
	})
}

func TestDoPropagatesCallerPanicLast(t *testing.T) {
	// Worker 0 runs on the caller; its panic must still wait for all
	// other workers to finish (no goroutine leaks) before re-raising.
	var finished atomic.Int32
	defer func() {
		if recover() == nil {
			t.Fatal("panic lost")
		}
		if finished.Load() != 7 {
			t.Fatalf("only %d workers finished before the re-raise", finished.Load())
		}
	}()
	Do(8, func(w int) {
		if w == 0 {
			panic("main-worker")
		}
		finished.Add(1)
	})
}
