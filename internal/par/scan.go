package par

import "pmsf/internal/obs"

// Prefix sums ("scans") are the glue of the Borůvka compact-graph step:
// after a sort brings duplicate edges together, an exclusive scan over
// per-segment counts computes the write offsets of the merged output.
//
// Two kinds of scans appear in the hot loops:
//
//   - O(p) coordinator scans over per-worker counters (harvest offsets,
//     filter offsets). p is tiny, so these
//     stay sequential on the coordinator by design — parallelizing them
//     would cost more in barriers than the handful of adds they do.
//   - Θ(cols·p) scans over per-worker histogram slabs (n·p entries for
//     the compactor's counting sort by supervertex). These are real
//     serial bottlenecks at scale; Scanner below runs them on the
//     persistent worker team.

// ExclusiveSumInt64 computes, in place, the exclusive prefix sum of a
// and returns the total. a[i] becomes sum(a[0:i]).
func ExclusiveSumInt64(a []int64) int64 {
	var sum int64
	for i, v := range a {
		a[i] = sum
		sum += v
	}
	return sum
}

// scannerSeqCutoff is the input size below which Scanner methods fall
// back to the sequential loop: two team barriers cost more than a few
// thousand adds on one core.
const scannerSeqCutoff = 1 << 12

// Scanner is the reusable team-based scan engine behind the radix
// kernels' offset computation: the classic two-pass (per-block sum,
// coordinator scan of p partials, per-block rescan) scheme, with the
// phase bodies prebound at construction so steady-state calls perform
// zero heap allocations — the same contract as sorts.Grouper.
//
// A Scanner is owned by a single goroutine; the parallelism comes from
// the team its phases run on. Small inputs take a sequential fallback
// (two barriers cost more than a few thousand adds); LastParallel
// reports which strategy the most recent call used, for span
// attribution.
type Scanner struct {
	p    int
	team *Team

	partial []int64 // per-worker block totals, then their offsets

	// Per-call state read by the prebound worker bodies.
	a32        []int32
	rows, cols int

	tsumBody, tscanBody func(int)

	// seqCutoff is scannerSeqCutoff; tests lower it to force the
	// parallel path on small inputs.
	seqCutoff int

	// LastParallel reports whether the most recent call took the
	// team-parallel path (false: sequential fallback).
	LastParallel bool
}

// NewScanner returns a scanner running its phases on team (of size p).
func NewScanner(p int, team *Team) *Scanner {
	s := &Scanner{p: p, team: team, partial: make([]int64, p), seqCutoff: scannerSeqCutoff}
	s.tsumBody = s.tsumWork
	s.tscanBody = s.tscanWork
	return s
}

// TransposedExclusiveSum scans a rows×cols row-major int32 matrix in
// COLUMN-major (transposed) order, in place, and returns the total.
// This is exactly the radix offset computation: row w holds worker w's
// per-digit histogram, and the digit-major exclusive scan turns counts
// into scatter offsets such that workers write their contiguous blocks
// in worker order within each digit — a stable pass. The team
// partitions the column space, so the Θ(rows·cols) scan that was
// coordinator-serial runs at full parallelism.
//
// The total must fit in int32 (histogram counts sum to the element
// count, which the compactor already bounds by int32 offsets).
//
//msf:noalloc
func (s *Scanner) TransposedExclusiveSum(a []int32, rows, cols int) int64 {
	if s.p == 1 || rows*cols < s.seqCutoff {
		s.LastParallel = false
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
	s.LastParallel = true
	obs.ParScans.Add(1)
	s.a32, s.rows, s.cols = a, rows, cols
	s.team.Run(s.tsumBody)
	total := ExclusiveSumInt64(s.partial)
	s.team.Run(s.tscanBody)
	s.a32 = nil
	return total
}

//msf:noalloc
func (s *Scanner) tsumWork(w int) {
	lo, hi := Block(s.cols, s.p, w)
	a, rows, cols := s.a32, s.rows, s.cols
	var sum int64
	for d := lo; d < hi; d++ {
		for r := 0; r < rows; r++ {
			sum += int64(a[r*cols+d])
		}
	}
	s.partial[w] = sum
}

//msf:noalloc
func (s *Scanner) tscanWork(w int) {
	lo, hi := Block(s.cols, s.p, w)
	a, rows, cols := s.a32, s.rows, s.cols
	pos := s.partial[w]
	for d := lo; d < hi; d++ {
		for r := 0; r < rows; r++ {
			i := r*cols + d
			v := a[i]
			a[i] = int32(pos)
			pos += int64(v)
		}
	}
}

// PackIndices returns the indices i in [0, n) for which keep(i) is true,
// preserving order, in two phases on the team: per-block counts, a
// coordinator scan of the p counts, then per-block scatter.
func (t *Team) PackIndices(n int, keep func(i int) bool) []int32 {
	counts := make([]int64, t.p)
	t.For(n, func(w, lo, hi int) {
		var c int64
		for i := lo; i < hi; i++ {
			if keep(i) {
				c++
			}
		}
		counts[w] = c
	})
	out := make([]int32, ExclusiveSumInt64(counts))
	t.For(n, func(w, lo, hi int) {
		pos := counts[w]
		for i := lo; i < hi; i++ {
			if keep(i) {
				out[pos] = int32(i)
				pos++
			}
		}
	})
	return out
}
