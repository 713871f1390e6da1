package sorts

import (
	"testing"

	"pmsf/internal/rng"
)

// SampleSort determinism: equal inputs and seeds produce equal outputs
// at every worker count (the bucket boundaries are seed-driven but the
// sorted result is unique up to the less function, which is total here).
func TestSampleSortDeterministicProperty(t *testing.T) {
	r := rng.New(5)
	n := 1 << 15
	base := make([]int, n)
	for i := range base {
		base[i] = r.Intn(1 << 30) // effectively distinct
	}
	first := append([]int(nil), base...)
	sampleSort(4, first, 11)
	for _, p := range []int{1, 2, 8} {
		for _, seed := range []uint64{11, 99} {
			a := append([]int(nil), base...)
			sampleSort(p, a, seed)
			if !equal(a, first) {
				t.Fatalf("p=%d seed=%d: output differs", p, seed)
			}
		}
	}
}
