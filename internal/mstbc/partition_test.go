package mstbc

import (
	"sync/atomic"
	"testing"

	"pmsf/internal/par"
)

func TestPartitionTakeFront(t *testing.T) {
	var pt partition
	pt.init(3, 7)
	for want := 3; want < 7; want++ {
		got, ok := pt.takeFront()
		if !ok || got != want {
			t.Fatalf("takeFront = %d,%v, want %d,true", got, ok, want)
		}
	}
	if _, ok := pt.takeFront(); ok {
		t.Fatal("takeFront succeeded on empty partition")
	}
}

func TestPartitionTakeBack(t *testing.T) {
	var pt partition
	pt.init(0, 4)
	for want := 3; want >= 0; want-- {
		got, ok := pt.takeBack()
		if !ok || got != want {
			t.Fatalf("takeBack = %d,%v, want %d,true", got, ok, want)
		}
	}
	if _, ok := pt.takeBack(); ok {
		t.Fatal("takeBack succeeded on empty partition")
	}
}

func TestPartitionMixedEnds(t *testing.T) {
	var pt partition
	pt.init(0, 5)
	a, _ := pt.takeFront() // 0
	b, _ := pt.takeBack()  // 4
	c, _ := pt.takeFront() // 1
	d, _ := pt.takeBack()  // 3
	e, _ := pt.takeFront() // 2
	if a != 0 || b != 4 || c != 1 || d != 3 || e != 2 {
		t.Fatalf("sequence %d %d %d %d %d", a, b, c, d, e)
	}
	if _, ok := pt.takeFront(); ok {
		t.Fatal("extra element")
	}
}

func TestPartitionEmptyRange(t *testing.T) {
	var pt partition
	pt.init(5, 5)
	if _, ok := pt.takeFront(); ok {
		t.Fatal("empty partition yielded")
	}
	if _, ok := pt.takeBack(); ok {
		t.Fatal("empty partition yielded")
	}
}

// Concurrent owners and thieves claim every index exactly once.
func TestPartitionConcurrentClaims(t *testing.T) {
	const n = 100_000
	var pt partition
	pt.init(0, n)
	claimed := make([]int32, n)
	team := par.NewTeam(8)
	defer team.Close()
	team.Run(func(w int) {
		for {
			var idx int
			var ok bool
			if w%2 == 0 {
				idx, ok = pt.takeFront()
			} else {
				idx, ok = pt.takeBack()
			}
			if !ok {
				return
			}
			atomic.AddInt32(&claimed[idx], 1)
		}
	})
	for i, c := range claimed {
		if c != 1 {
			t.Fatalf("index %d claimed %d times", i, c)
		}
	}
}

func TestMyColorsUnique(t *testing.T) {
	const p = 7
	seen := map[int64]bool{}
	for w := 0; w < p; w++ {
		for tree := int64(0); tree < 100; tree++ {
			c := myColors(w, p, tree)
			if c == 0 {
				t.Fatal("color 0 is reserved for uncolored")
			}
			if seen[c] {
				t.Fatalf("duplicate color %d (w=%d t=%d)", c, w, tree)
			}
			seen[c] = true
		}
	}
}
