package sorts

import (
	"fmt"
	"sort"
	"testing"

	"pmsf/internal/par"
	"pmsf/internal/rng"
)

func benchInput(n int) []int {
	r := rng.New(42)
	a := make([]int, n)
	for i := range a {
		a[i] = int(r.Uint64() >> 1)
	}
	return a
}

func BenchmarkSequentialSorts(b *testing.B) {
	const n = 1 << 16
	base := benchInput(n)
	runs := []struct {
		name string
		run  func([]int)
	}{
		{"merge-bottomup", func(a []int) { MergeBottomUp(a, make([]int, len(a)), intLess) }},
		{"merge-recursive", func(a []int) { MergeRecursive(a, make([]int, len(a)), intLess) }},
		{"quicksort", func(a []int) { Quicksort(a, intLess) }},
		{"stdlib", func(a []int) { sort.Ints(a) }},
	}
	for _, r := range runs {
		b.Run(r.name, func(b *testing.B) {
			a := make([]int, n)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(a, base)
				b.StartTimer()
				r.run(a)
			}
		})
	}
}

func BenchmarkParallelSorts(b *testing.B) {
	const n = 1 << 18
	base := benchInput(n)
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("sample/p=%d", p), func(b *testing.B) {
			a := make([]int, n)
			team := par.NewTeam(p)
			defer team.Close()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(a, base)
				b.StartTimer()
				SampleSort(team, a, intLess, 1)
			}
		})
	}
}

func BenchmarkInsertionCutover(b *testing.B) {
	// Where insertion sort stops beating merge sort — the measurement
	// behind InsertionCutoff.
	for _, n := range []int{8, 16, 32, 64, 128} {
		base := benchInput(n)
		b.Run(fmt.Sprintf("insertion/n=%d", n), func(b *testing.B) {
			a := make([]int, n)
			for i := 0; i < b.N; i++ {
				copy(a, base)
				Insertion(a, intLess)
			}
		})
		b.Run(fmt.Sprintf("merge/n=%d", n), func(b *testing.B) {
			a := make([]int, n)
			buf := make([]int, n)
			for i := 0; i < b.N; i++ {
				copy(a, base)
				MergeBottomUp(a, buf, intLess)
			}
		})
	}
}
