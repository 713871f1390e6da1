// Package par provides the fork-join parallel primitives on which the
// parallel MSF algorithms are built: parallel-for over index ranges,
// reductions, prefix sums, a persistent worker team, and a static work
// partitioner.
//
// The package deliberately mirrors the SPMD structure of the SIMPLE
// primitives library used by the paper (Bader & JáJá): each phase forks p
// workers over a contiguous range, and phases are separated by implicit
// barriers (the join). Worker identifiers are stable within a phase so
// per-worker scratch space can be preallocated.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"pmsf/internal/obs"
)

// PadWords is the stride, in 8-byte words, that puts per-worker
// counters a cache line apart, so workers writing their own slots share
// no line.
const PadWords = 8

// SeqCutoff is the input length below which a data-parallel pass runs
// on the calling goroutine instead of the team: below it a team barrier
// costs more than the pass it splits.
const SeqCutoff = 1 << 13

// DefaultWorkers returns the default parallelism for the library:
// GOMAXPROCS at the time of the call.
func DefaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// Clamp bounds p to [1, n] when n > 0 (no point in more workers than
// items), and to at least 1 otherwise.
func Clamp(p, n int) int {
	if p < 1 {
		p = 1
	}
	if n > 0 && p > n {
		p = n
	}
	return p
}

// Range describes a half-open index interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Len returns the number of indices in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Block returns the w-th of p nearly equal contiguous ranges of [0, n)
// without allocating: Block(n, p, w) equals Split(n, p)[w]. Phase bodies
// that run on a persistent Team use it to compute their own range, which
// keeps the steady-state loop free of the []Range allocation Split
// performs.
//
//msf:noalloc
func Block(n, p, w int) (lo, hi int) {
	base := n / p
	extra := n % p
	lo = w * base
	if w < extra {
		lo += w
		hi = lo + base + 1
		return lo, hi
	}
	lo += extra
	return lo, lo + base
}

// Split partitions [0, n) into p nearly equal contiguous ranges. The first
// n%p ranges receive one extra element. Empty ranges are possible when
// p > n.
func Split(n, p int) []Range {
	if p < 1 {
		p = 1
	}
	ranges := make([]Range, p)
	base := n / p
	extra := n % p
	lo := 0
	for i := 0; i < p; i++ {
		size := base
		if i < extra {
			size++
		}
		ranges[i] = Range{lo, lo + size}
		lo += size
	}
	return ranges
}

// Do runs body(worker) on p goroutines with worker IDs 0..p-1 and waits
// for all of them. It is the bare SPMD fork-join.
//
// A panic in any worker is captured and re-raised on the calling
// goroutine after every worker has finished, so callers see library
// panics as ordinary panics with a usable stack instead of a crashed
// runtime. When several workers panic, the lowest worker id wins.
func Do(p int, body func(worker int)) {
	if obs.MetricsOn() {
		obs.ParPhases.Add(1)
	}
	if p <= 1 {
		body(0)
		return
	}
	panics := make([]any, p)
	var wg sync.WaitGroup
	wg.Add(p - 1)
	for w := 1; w < p; w++ {
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[w] = r
				}
			}()
			body(w)
		}(w)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				panics[0] = r
			}
		}()
		body(0)
	}()
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
}

// For runs body over [0, n) split into p contiguous blocks, one per
// worker: body(worker, lo, hi). Workers with empty ranges are still
// invoked (with lo == hi) so per-worker side effects remain uniform.
func For(p, n int, body func(worker, lo, hi int)) {
	p = Clamp(p, n)
	if p == 1 {
		body(0, 0, n)
		return
	}
	ranges := Split(n, p)
	Do(p, func(w int) {
		body(w, ranges[w].Lo, ranges[w].Hi)
	})
}

// ForDynamic runs body(i) for each i in [0, n) using p workers pulling
// grain-sized chunks from a shared atomic counter. Use it when per-index
// cost is irregular (e.g. per-vertex adjacency list sorts).
func ForDynamic(p, n, grain int, body func(worker, lo, hi int)) {
	p = Clamp(p, n)
	if grain < 1 {
		grain = 1
	}
	if p == 1 {
		body(0, 0, n)
		return
	}
	var next, chunks atomic.Int64
	metrics := obs.MetricsOn()
	Do(p, func(w int) {
		for {
			lo := int(next.Add(int64(grain))) - grain
			if lo >= n {
				return
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			if metrics {
				chunks.Add(1)
			}
			body(w, lo, hi)
		}
	})
	if metrics {
		obs.ParChunks.Add(chunks.Load())
	}
}

// ReduceInt64 computes the sum of per-worker partial results of body over
// [0, n) split into p blocks.
func ReduceInt64(p, n int, body func(worker, lo, hi int) int64) int64 {
	p = Clamp(p, n)
	partial := make([]int64, p)
	For(p, n, func(w, lo, hi int) {
		partial[w] = body(w, lo, hi)
	})
	var sum int64
	for _, v := range partial {
		sum += v
	}
	return sum
}
