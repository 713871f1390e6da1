// Package par is the one parallel runtime the MSF algorithms run on: a
// persistent worker Team with block and dynamic parallel-for phases, a
// parallel pack, prefix-sum scans, and the static Block partitioner.
//
// The package deliberately mirrors the SPMD structure of the SIMPLE
// primitives library used by the paper (Bader & JáJá): p workers live
// for the whole algorithm, each phase gives every worker a contiguous
// range or a stream of chunks, and phases are separated by barriers.
// Worker identifiers are stable within a phase so per-worker scratch
// space can be preallocated.
package par

import "runtime"

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

// Block returns the w-th of p nearly equal contiguous ranges of [0, n)
// without allocating. The first n%p ranges receive one extra element;
// ranges are empty when p > n. Phase bodies that run on a Team use it to
// compute their own range.
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
