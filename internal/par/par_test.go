package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestBlockProperties(t *testing.T) {
	f := func(n, p uint8) bool {
		np := int(p)%16 + 1
		// Contiguous cover of [0, n), sizes differ by at most 1.
		pos, minLen, maxLen := 0, int(n)+1, -1
		for w := 0; w < np; w++ {
			lo, hi := Block(int(n), np, w)
			if lo != pos || hi < lo {
				return false
			}
			pos = hi
			minLen = min(minLen, hi-lo)
			maxLen = max(maxLen, hi-lo)
		}
		return pos == int(n) && maxLen-minLen <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8, 100} {
		team := NewTeam(p)
		for _, n := range []int{0, 1, 7, 100, 1000} {
			hits := make([]int32, n)
			team.For(n, func(_, lo, hi int) {
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
		team.Close()
	}
}

func TestForDynamicCoversEveryIndexOnce(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		team := NewTeam(p)
		for _, grain := range []int{1, 3, 64, 10_000} {
			const n = 1000
			hits := make([]int32, n)
			team.ForDynamic(n, grain, func(_, lo, hi int) {
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
		team.Close()
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}
