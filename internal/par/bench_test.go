package par

import "testing"

func BenchmarkPackIndices(b *testing.B) {
	const n = 1 << 20
	team := NewTeam(4)
	defer team.Close()
	for i := 0; i < b.N; i++ {
		team.PackIndices(n, func(i int) bool { return i%3 == 0 })
	}
}
