// Package sorts implements the sorting routines the paper's compact-graph
// steps are built on: an O(n²) insertion sort for the many short
// adjacency lists of very sparse graphs, a non-recursive (bottom-up)
// O(n log n) merge sort for long lists, a hybrid of the two, a parallel
// sample sort in the style of Helman and JáJá for the global edge sort of
// Bor-EL, and a parallel counting sort for grouping vertices by
// supervertex label.
package sorts

import (
	"pmsf/internal/obs"
	"pmsf/internal/par"
	"pmsf/internal/rng"
)

// InsertionCutoff is the default list length below which insertion sort is
// used instead of merge sort. Profiling in the paper showed ~80% of
// per-vertex lists of a 1M-vertex, 6M-edge random graph have at most 100
// elements, where insertion sort wins.
const InsertionCutoff = 32

// Insertion sorts a in place with insertion sort.
func Insertion[T any](a []T, less func(x, y T) bool) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && less(v, a[j]) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// MergeBottomUp sorts a in place with a non-recursive bottom-up merge
// sort, using buf (which must be at least len(a) long) as scratch. Runs
// of insertionBase elements are first sorted with insertion sort, then
// doubled-width merge passes alternate between a and buf.
func MergeBottomUp[T any](a, buf []T, less func(x, y T) bool) {
	n := len(a)
	const insertionBase = 16
	if n <= insertionBase {
		Insertion(a, less)
		return
	}
	if len(buf) < n {
		panic("sorts: merge buffer too small")
	}
	buf = buf[:n]
	for lo := 0; lo < n; lo += insertionBase {
		hi := lo + insertionBase
		if hi > n {
			hi = n
		}
		Insertion(a[lo:hi], less)
	}
	src, dst := a, buf
	for width := insertionBase; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			mergeInto(dst[lo:hi], src[lo:mid], src[mid:hi], less)
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// mergeInto merges sorted x and y into out (len(out) == len(x)+len(y)).
// The merge is stable: ties are taken from x first.
func mergeInto[T any](out, x, y []T, less func(a, b T) bool) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		if less(y[j], x[i]) {
			out[k] = y[j]
			j++
		} else {
			out[k] = x[i]
			i++
		}
		k++
	}
	for i < len(x) {
		out[k] = x[i]
		i++
		k++
	}
	for j < len(y) {
		out[k] = y[j]
		j++
		k++
	}
}

// SampleSort sorts a on team's p workers using sample sort: oversample,
// select p-1 splitters, scatter into buckets with a count/scan/scatter
// pass, and sort buckets independently. Falls back to sequential merge
// sort for small inputs or p == 1. seed determines splitter sampling
// only; the result is always exactly sorted.
func SampleSort[T any](team *par.Team, a []T, less func(x, y T) bool, seed uint64) {
	n := len(a)
	obs.SortElements.Add(int64(n))
	const seqCutoff = 1 << 14
	p := team.P()
	if p <= 1 || n < seqCutoff {
		buf := make([]T, n)
		MergeBottomUp(a, buf, less)
		return
	}

	// Oversample: c*p candidates, sort them, take every c-th as splitter.
	const oversample = 32
	r := rng.New(seed)
	sampleN := oversample * p
	sample := make([]T, sampleN)
	for i := range sample {
		sample[i] = a[r.Intn(n)]
	}
	sbuf := make([]T, sampleN)
	MergeBottomUp(sample, sbuf, less)
	splitters := make([]T, p-1)
	for i := 1; i < p; i++ {
		splitters[i-1] = sample[i*oversample-1]
	}

	// Classify: per-worker bucket counts.
	nb := p
	counts := make([][]int64, p)
	team.For(n, func(w, lo, hi int) {
		c := make([]int64, nb)
		for i := lo; i < hi; i++ {
			c[bucketOf(a[i], splitters, less)]++
		}
		counts[w] = c
	})

	// Offsets: bucket-major exclusive scan over (bucket, worker).
	bucketStart := make([]int64, nb+1)
	for b := 0; b < nb; b++ {
		var total int64
		for w := 0; w < p; w++ {
			total += counts[w][b]
		}
		bucketStart[b+1] = bucketStart[b] + total
	}
	offsets := make([][]int64, p)
	for w := 0; w < p; w++ {
		offsets[w] = make([]int64, nb)
	}
	for b := 0; b < nb; b++ {
		pos := bucketStart[b]
		for w := 0; w < p; w++ {
			offsets[w][b] = pos
			pos += counts[w][b]
		}
	}

	// Scatter into the shared output buffer.
	out := make([]T, n)
	team.For(n, func(w, lo, hi int) {
		off := offsets[w]
		for i := lo; i < hi; i++ {
			b := bucketOf(a[i], splitters, less)
			out[off[b]] = a[i]
			off[b]++
		}
	})

	// Sort buckets independently; dynamic scheduling absorbs skew.
	team.ForDynamic(nb, 1, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			seg := out[bucketStart[b]:bucketStart[b+1]]
			buf := make([]T, len(seg))
			MergeBottomUp(seg, buf, less)
		}
	})
	copy(a, out)
}

// bucketOf returns the index of the first splitter >= v (binary search),
// i.e. the bucket that v belongs to.
func bucketOf[T any](v T, splitters []T, less func(x, y T) bool) int {
	lo, hi := 0, len(splitters)
	for lo < hi {
		mid := (lo + hi) / 2
		if less(splitters[mid], v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
