package par

import (
	"testing"

	"pmsf/internal/rng"
)

// The Scanner tests exercise both strategies of every method: the
// sequential small-input fallback as-is, and the team-parallel path by
// lowering seqCutoff to 1 so even tiny inputs (including p > len(a))
// take the barrier-and-partial-sums route.

func naiveTransposedSum(a []int32, rows, cols int) int64 {
	var sum int32
	for d := 0; d < cols; d++ {
		for r := 0; r < rows; r++ {
			i := r*cols + d
			v := a[i]
			a[i] = sum
			sum += v
		}
	}
	return int64(sum)
}

func scannerForTest(t *testing.T, p int, forcePar bool) (*Scanner, func()) {
	t.Helper()
	team := NewTeam(p)
	s := NewScanner(p, team)
	if forcePar {
		s.seqCutoff = 1
	}
	return s, team.Close
}

func TestScannerTransposedExclusiveSum(t *testing.T) {
	r := rng.New(8)
	for _, p := range []int{1, 3, 8} {
		for _, forcePar := range []bool{false, true} {
			s, done := scannerForTest(t, p, forcePar)
			for _, rows := range []int{1, 2, p, 8} {
				// Cols below p covers the p > work edge of the column split.
				for _, cols := range []int{1, 2, p - 1, 64, 300} {
					if cols < 1 {
						continue
					}
					a := make([]int32, rows*cols)
					b := make([]int32, rows*cols)
					for i := range a {
						a[i] = int32(r.Intn(100))
					}
					copy(b, a)
					wantTotal := naiveTransposedSum(a, rows, cols)
					gotTotal := s.TransposedExclusiveSum(b, rows, cols)
					if gotTotal != wantTotal {
						t.Fatalf("p=%d force=%v %dx%d: total %d, want %d", p, forcePar, rows, cols, gotTotal, wantTotal)
					}
					for i := range a {
						if a[i] != b[i] {
							t.Fatalf("p=%d force=%v %dx%d: [%d]=%d, want %d", p, forcePar, rows, cols, i, b[i], a[i])
						}
					}
				}
			}
			done()
		}
	}
}
