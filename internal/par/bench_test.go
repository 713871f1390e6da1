package par

import (
	"fmt"
	"testing"
)

func BenchmarkForOverhead(b *testing.B) {
	// Fork-join cost of an (almost) empty body at various p — the
	// per-phase overhead every Borůvka iteration pays.
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			sink := make([]int64, p)
			for i := 0; i < b.N; i++ {
				For(p, p, func(w, lo, hi int) { sink[w]++ })
			}
		})
	}
}

func BenchmarkPackIndices(b *testing.B) {
	const n = 1 << 20
	for i := 0; i < b.N; i++ {
		PackIndices(4, n, func(i int) bool { return i%3 == 0 })
	}
}

func BenchmarkTeamVsDo(b *testing.B) {
	const phases = 32
	b.Run("do", func(b *testing.B) {
		sink := make([]int64, 4)
		for i := 0; i < b.N; i++ {
			for ph := 0; ph < phases; ph++ {
				Do(4, func(w int) { sink[w]++ })
			}
		}
	})
	b.Run("team", func(b *testing.B) {
		team := NewTeam(4)
		defer team.Close()
		sink := make([]int64, 4)
		for i := 0; i < b.N; i++ {
			for ph := 0; ph < phases; ph++ {
				team.Run(func(w int) { sink[w]++ })
			}
		}
	})
}
