package sorts

// The packed-key parallel radix compactor is the engine behind the
// default Bor-EL compact-graph step. The paper's formulation sorts the
// working edge list by the full (U, V, W, ID) key and keeps the head of
// every duplicate run; profiling shows that sort dominating every
// iteration. Two observations shrink it:
//
//  1. Only (U, V) needs to be SORTED. The weight and the id merely pick
//     the representative of each duplicate run, so a per-run (W, ID)
//     min-reduction replaces six of the ten radix passes outright.
//  2. Both endpoints are supervertex ids below the current supervertex
//     count n, so (U, V) packs into a single uint64 of 2·ceil(log2 n)
//     significant bits, and the digit plan is chosen from that bit
//     count (and from the per-worker element count; see RadixPlanFor).
//
// Three further changes cut the work around the passes:
//
//   - One-shot histogramming at p = 1: a pass's GLOBAL histogram
//     depends only on the key multiset, so the lone worker counts every
//     pass of the plan in one read of the input. At p > 1 the
//     per-worker histograms that make a parallel pass stable depend on
//     which elements land in each worker's block — which earlier passes
//     change — so each pass is the plain stable LSD pass WeightSorter
//     runs: count the pass's digit per worker block, scan, scatter.
//   - Team-parallel offset computation: the digit-major exclusive scan
//     over the p<<digitBits histogram slab (up to 65536·p entries per
//     pass) and the backward fill of the per-vertex starts array both
//     run on the worker team via par.Scanner instead of serially on the
//     coordinator.
//   - Adaptive digit width: RadixPlanFor shrinks digitBits when m/p is
//     small, keeping the histogram slab cache-resident in the late
//     small-m rounds instead of always paying the 16-bit 256KB/worker
//     worst case.
//
// All state lives in buffers the caller (boruvka.Workspace) reuses
// across rounds, so the steady-state iteration performs zero heap
// allocations.

import (
	"math/bits"

	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/par"
)

// maxDigitBits caps the radix digit width.
const maxDigitBits = 16

// minDigitBits floors the adaptive digit width: below this the pass
// count grows faster than the histogram shrinks.
const minDigitBits = 6

// maxHistPerWorker bounds passes<<digitBits over every plan RadixPlanFor
// can emit (the maximum is the 4-pass 16-bit plan for 62-bit keys), so
// the p = 1 one-shot histogram slab is allocated once, worst case, per
// run. It cannot be sized from the first call's plan: a later round
// with a smaller n can pick a wider digit (2b = 36 gives three 12-bit
// passes, 2b = 32 two 16-bit passes).
const maxHistPerWorker = 4 << maxDigitBits

// PackWidth returns the bit width b such that every vertex id in [0, n)
// fits in b bits (at least 1). The packed (U, V) key is U<<b | V, a
// 2b-bit integer whose unsigned order is the lexicographic (U, V) order.
func PackWidth(n int) uint {
	if n < 2 {
		return 1
	}
	return uint(bits.Len32(uint32(n - 1)))
}

// RadixPlan returns the minimum-pass uniform plan for supervertex count
// n: passes = ceil(2b/16) and digitBits = ceil(2b/passes), which
// balances the digits (e.g. 2b=40 gives three 14-bit passes instead of
// two 16-bit and one 8-bit). It is the fewest-passes end of the plan
// space RadixPlanFor searches.
func RadixPlan(n int) (passes int, digitBits uint) {
	total := 2 * PackWidth(n)
	passes = int((total + maxDigitBits - 1) / maxDigitBits)
	digitBits = (total + uint(passes) - 1) / uint(passes)
	return passes, digitBits
}

// RadixPlanFor returns the adaptive pass count and digit width for
// compacting m elements over n supervertices with p workers. Candidate
// plans are the balanced k-pass plans from RadixPlan's minimum up to
// the minDigitBits floor; the cost model charges each pass its
// per-worker element traffic (scatter reads and writes) plus its
// per-worker histogram traffic (zeroing, counting and the offset scan
// all walk the 1<<digitBits slab). Large m/p amortizes wide digits and
// gets the fewest passes; small m/p (the late Borůvka rounds, where n
// has contracted but the fixed plan still burned 64K-entry histograms)
// shifts to narrower digits whose slabs stay cache-resident.
func RadixPlanFor(n, m, p int) (passes int, digitBits uint) {
	total := 2 * PackWidth(n)
	if p < 1 {
		p = 1
	}
	per := int64(m / p)
	minPasses, _ := RadixPlan(n)
	bestCost := int64(-1)
	for k := minPasses; ; k++ {
		db := (total + uint(k) - 1) / uint(k)
		if k > minPasses && db < minDigitBits {
			break
		}
		cost := int64(k) * (per + 2*(int64(1)<<db))
		if bestCost < 0 || cost < bestCost {
			bestCost = cost
			passes, digitBits = k, db
		}
	}
	return passes, digitBits
}

// Compactor is the reusable parallel packed-key radix compaction engine.
// Create one per run with NewCompactor and call Compact once per Borůvka
// round; the per-worker histogram slab and the prebound phase bodies
// are allocated once, so steady-state calls allocate nothing.
//
// A Compactor is owned by a single goroutine; the parallelism comes from
// the team it runs its phases on.
type Compactor struct {
	p    int
	team *par.Team
	scn  *par.Scanner

	hist   []int32 // p = 1: one histogram per pass; p > 1: one per worker, reused by every pass
	wcount []int64 // per-worker counts / exclusive offsets for the head pack

	// Per-call state read by the prebound worker bodies.
	src, dst  []graph.WEdge
	m         int
	width     uint
	shift     uint
	digitBits uint
	mask      uint64
	base      int // offset of the current pass's histograms in hist
	keepIdx   []int32
	kept      int
	out       []graph.WEdge
	starts    []int64
	n         int

	countAllBody    func(int)
	countPassBody   func(int)
	scatterBody     func(int)
	headCountBody   func(int)
	headScatterBody func(int)
	reduceBody      func(worker, lo, hi int)
	startsClearBody func(int)
	startsMarkBody  func(int)

	// Passes, LastDigitBits and LastScanParallel describe the most
	// recent Compact call (recorded as span attributes by the caller).
	Passes           int
	LastDigitBits    uint
	LastScanParallel bool
}

// NewCompactor returns a compactor running its phases on team (whose
// size must be p).
func NewCompactor(p int, team *par.Team) *Compactor {
	hist := p << maxDigitBits
	if p == 1 {
		hist = maxHistPerWorker
	}
	c := &Compactor{
		p:      p,
		team:   team,
		scn:    par.NewScanner(p, team),
		hist:   make([]int32, hist),
		wcount: make([]int64, p),
	}
	c.countAllBody = c.countAllWork
	c.countPassBody = c.countPassWork
	c.scatterBody = c.scatterWork
	c.headCountBody = c.headCountWork
	c.headScatterBody = c.headScatterWork
	c.reduceBody = c.reduceWork
	c.startsClearBody = c.startsClearWork
	c.startsMarkBody = c.startsMarkWork
	return c
}

// Compact sorts edges by the packed (U, V) key, drops self-loops,
// reduces every duplicate (U, V) run to its minimum-(W, ID) edge, and
// fills starts (length n+1) with the per-vertex segment boundaries. It
// returns the compacted list and the buffer to pass as spare next round
// (the two ping-pong across calls).
//
// Requirements: cap(spare) >= len(edges), len(keepIdx) >= len(edges),
// len(starts) == n+1, and every endpoint in [0, n).
//
//msf:noalloc
func (c *Compactor) Compact(edges, spare []graph.WEdge, n int, keepIdx []int32, starts []int64) (out, newSpare []graph.WEdge) {
	m := len(edges)
	c.m, c.n, c.starts, c.keepIdx = m, n, starts, keepIdx
	c.width = PackWidth(n)
	passes, digitBits := RadixPlanFor(n, m, c.p)
	c.digitBits = digitBits
	c.mask = uint64(1)<<digitBits - 1
	c.Passes, c.LastDigitBits = passes, digitBits
	c.LastScanParallel = false
	if m == 0 {
		for i := range starts {
			starts[i] = 0
		}
		return edges, spare
	}

	src, dst := edges, spare[:m]
	nd := 1 << digitBits

	// At p = 1 one read counts every pass (see the package comment).
	if c.p == 1 {
		c.src = src
		c.team.Run(c.countAllBody)
	}
	for pass := 0; pass < passes; pass++ {
		c.shift = uint(pass) * digitBits
		c.src, c.dst = src, dst
		if c.p == 1 {
			c.base = pass << digitBits
		} else {
			c.team.Run(c.countPassBody)
		}
		// Offsets: digit-major exclusive scan over (digit, worker), so
		// workers scatter their contiguous blocks in order — a stable
		// pass. Team-parallel over the digit space (Θ(nd·p) entries).
		c.scn.TransposedExclusiveSum(c.hist[c.base:c.base+(c.p<<digitBits)], c.p, nd)
		if c.scn.LastParallel {
			c.LastScanParallel = true
		}
		c.team.Run(c.scatterBody)
		src, dst = dst, src
	}

	// src is sorted by (U, V); pack the heads of the non-self-loop runs.
	// (The offset scan over wcount is O(p) coordinator work — serial by
	// design, unlike the Θ(nd·p) histogram scans above.)
	c.src = src
	c.team.Run(c.headCountBody)
	var total int64
	for w := 0; w < c.p; w++ {
		v := c.wcount[w]
		c.wcount[w] = total
		total += v
	}
	c.kept = int(total)
	c.team.Run(c.headScatterBody)

	// Min-reduce each run into the spare buffer.
	c.out = dst[:c.kept]
	c.team.ForDynamic(c.kept, 256, c.reduceBody)

	// Segment starts: first occurrence of each U, then a team-parallel
	// backward fill of the empty vertices.
	c.team.Run(c.startsClearBody)
	starts[n] = total
	c.team.Run(c.startsMarkBody)
	c.scn.BackfillNegative(starts[:n+1])

	if obs.MetricsOn() {
		obs.RadixPasses.Add(int64(passes))
		obs.SortElements.Add(int64(m))
		// Bytes that the sort-allocating engines would have taken fresh
		// from the heap: both edge buffers, the keep indices, the starts.
		const wedgeBytes = 24
		obs.WorkspaceReused.Add(int64(m)*2*wedgeBytes + int64(m)*4 + int64(n+1)*8)
	}
	return c.out, src
}

// packedKey builds the 2·width-bit sort key of a working edge.
//
//msf:noalloc
func packedKey(e graph.WEdge, width uint) uint64 {
	return uint64(uint32(e.U))<<width | uint64(uint32(e.V))
}

// countAllWork is the p = 1 one-shot count: it zeroes and fills the
// lone worker's histogram for every pass of the plan in one sweep of
// the input — per element, one key computation and Passes increments
// into cache-resident slabs.
//
//msf:noalloc
func (c *Compactor) countAllWork(int) {
	db, passes := c.digitBits, c.Passes
	hist := c.hist[:passes<<db]
	for i := range hist {
		hist[i] = 0
	}
	width, mask := c.width, c.mask
	for _, e := range c.src {
		key := packedKey(e, width)
		for k := 0; k < passes; k++ {
			hist[(k<<db)+int((key>>(uint(k)*db))&mask)]++
		}
	}
}

// countPassWork zeroes and fills this worker's histogram of the current
// pass's digit over its block of the current array (p > 1, where every
// pass recounts into the same p rows).
//
//msf:noalloc
func (c *Compactor) countPassWork(w int) {
	lo, hi := par.Block(c.m, c.p, w)
	h := c.hist[w<<c.digitBits : (w+1)<<c.digitBits]
	for i := range h {
		h[i] = 0
	}
	width, shift, mask := c.width, c.shift, c.mask
	src := c.src
	for i := lo; i < hi; i++ {
		h[(packedKey(src[i], width)>>shift)&mask]++
	}
}

// scatterWork writes each edge of this worker's block to its offset
// slot for the current pass's digit.
//
//msf:noalloc
func (c *Compactor) scatterWork(w int) {
	lo, hi := par.Block(c.m, c.p, w)
	h := c.hist[c.base+w<<c.digitBits : c.base+(w+1)<<c.digitBits]
	width, shift, mask := c.width, c.shift, c.mask
	src, dst := c.src, c.dst
	for i := lo; i < hi; i++ {
		e := src[i]
		d := (packedKey(e, width) >> shift) & mask
		dst[h[d]] = e
		h[d]++
	}
}

//msf:noalloc
func (c *Compactor) headCountWork(w int) {
	lo, hi := par.Block(c.m, c.p, w)
	src := c.src
	var cnt int64
	for i := lo; i < hi; i++ {
		e := src[i]
		if e.U == e.V {
			continue
		}
		if i == 0 || src[i-1].U != e.U || src[i-1].V != e.V {
			cnt++
		}
	}
	c.wcount[w] = cnt
}

//msf:noalloc
func (c *Compactor) headScatterWork(w int) {
	lo, hi := par.Block(c.m, c.p, w)
	src, keep := c.src, c.keepIdx
	pos := c.wcount[w]
	for i := lo; i < hi; i++ {
		e := src[i]
		if e.U == e.V {
			continue
		}
		if i == 0 || src[i-1].U != e.U || src[i-1].V != e.V {
			keep[pos] = int32(i)
			pos++
		}
	}
}

//msf:noalloc
func (c *Compactor) reduceWork(_, lo, hi int) {
	src, out, keep := c.src, c.out, c.keepIdx
	m := c.m
	for j := lo; j < hi; j++ {
		s := int(keep[j])
		e := src[s]
		for i := s + 1; i < m; i++ {
			x := src[i]
			if x.U != e.U || x.V != e.V {
				break
			}
			if x.W < e.W || (x.W == e.W && x.ID < e.ID) {
				e = x
			}
		}
		out[j] = e
	}
}

//msf:noalloc
func (c *Compactor) startsClearWork(w int) {
	lo, hi := par.Block(c.n, c.p, w)
	starts := c.starts
	for v := lo; v < hi; v++ {
		starts[v] = -1
	}
}

//msf:noalloc
func (c *Compactor) startsMarkWork(w int) {
	lo, hi := par.Block(c.kept, c.p, w)
	out, starts := c.out, c.starts
	for i := lo; i < hi; i++ {
		if i == 0 || out[i-1].U != out[i].U {
			starts[out[i].U] = int64(i)
		}
	}
}
