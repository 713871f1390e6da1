// Package clean is the noalloc negative fixture: the prebind-at-setup
// idiom the Borůvka round loops and the two-level Compactor use —
// allocation happens in the constructor, the annotated steady-state
// body only reuses it.
package clean

type worker struct {
	scratch []int64
	body    func(w, lo, hi int)
}

func newWorker(n int) *worker {
	wk := &worker{scratch: make([]int64, n)}
	wk.body = wk.sumRange // method value bound once at setup
	return wk
}

func (wk *worker) sumRange(w, lo, hi int) {
	var sum int64
	for i := lo; i < hi; i++ {
		sum += wk.scratch[i]
	}
	wk.scratch[w] = sum
}

//msf:noalloc
func (wk *worker) round(p, n int) {
	for w := 0; w < p; w++ {
		lo := w * n / p
		hi := (w + 1) * n / p
		wk.body(w, lo, hi)
	}
	wk.scratch = wk.scratch[:0]
	wk.scratch = wk.scratch[:cap(wk.scratch)]
}

// scatter is a write-combining radix scatter: per-digit staging in a
// preallocated slab, bulk-flushed with copy, with reslices and
// full-slice expressions of the reused buffers. None of it allocates in
// steady state.
type scatter struct {
	buf  []int64
	blen []int32
	dst  []int64
	off  []int32
}

const bufEdges = 4

func newScatter(nd, m int) *scatter {
	return &scatter{
		buf:  make([]int64, nd*bufEdges),
		blen: make([]int32, nd),
		dst:  make([]int64, m),
		off:  make([]int32, nd),
	}
}

//msf:noalloc
func (sc *scatter) pass(keys []int64, nd int) {
	buf := sc.buf[: nd*bufEdges : nd*bufEdges]
	blen := sc.blen[:nd]
	off := sc.off
	for _, k := range keys {
		d := int(k) & (nd - 1)
		s := d * bufEdges
		l := int(blen[d])
		buf[s+l] = k
		l++
		if l == bufEdges {
			copy(sc.dst[off[d]:int(off[d])+bufEdges], buf[s:s+bufEdges])
			off[d] += bufEdges
			l = 0
		}
		blen[d] = int32(l)
	}
	for d := 0; d < nd; d++ {
		if l := int(blen[d]); l > 0 {
			copy(sc.dst[off[d]:int(off[d])+l], buf[d*bufEdges:d*bufEdges+l])
			off[d] += int32(l)
			blen[d] = 0
		}
	}
}
