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

	partial []int64 // per-worker block totals / seeds

	// Per-call state read by the prebound worker bodies.
	a64        []int64
	a32        []int32
	rows, cols int

	tsumBody, tscanBody func(int)
	seedBody, fillBody  func(int)

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
	s.seedBody = s.seedWork
	s.fillBody = s.fillWork
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
	if obs.MetricsOn() {
		obs.ParScans.Add(1)
	}
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

// BackfillNegative replaces every negative a[i] with the nearest
// following non-negative value, in place: the per-vertex segment-starts
// fill of the compact-graph step (empty vertices inherit the next
// segment boundary). The last element must be non-negative (it is the
// starts sentinel). The team partitions the index space; each block's
// seed is the first non-negative value to its right, computed from p
// per-block "first non-negative" summaries.
//
//msf:noalloc
func (s *Scanner) BackfillNegative(a []int64) {
	n := len(a)
	if n == 0 {
		return
	}
	if s.p == 1 || n < s.seqCutoff {
		s.LastParallel = false
		for i := n - 2; i >= 0; i-- {
			if a[i] < 0 {
				a[i] = a[i+1]
			}
		}
		return
	}
	s.LastParallel = true
	if obs.MetricsOn() {
		obs.ParScans.Add(1)
	}
	s.a64 = a
	s.team.Run(s.seedBody)
	// Right-to-left over the p block summaries: each block's fill seed
	// is the nearest first-non-negative to its right (the sentinel when
	// none exists).
	cur := a[n-1]
	for w := s.p - 1; w >= 0; w-- {
		first := s.partial[w]
		s.partial[w] = cur
		if first >= 0 {
			cur = first
		}
	}
	s.team.Run(s.fillBody)
	s.a64 = nil
}

//msf:noalloc
func (s *Scanner) seedWork(w int) {
	lo, hi := Block(len(s.a64)-1, s.p, w)
	a := s.a64
	first := int64(-1)
	for i := lo; i < hi; i++ {
		if a[i] >= 0 {
			first = a[i]
			break
		}
	}
	s.partial[w] = first
}

//msf:noalloc
func (s *Scanner) fillWork(w int) {
	lo, hi := Block(len(s.a64)-1, s.p, w)
	a := s.a64
	run := s.partial[w]
	for i := hi - 1; i >= lo; i-- {
		if a[i] < 0 {
			a[i] = run
		} else {
			run = a[i]
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
