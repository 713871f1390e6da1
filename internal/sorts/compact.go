package sorts

// The two-level compactor is the engine behind the default Bor-EL
// compact-graph step and every MST-BC contraction. The paper's
// formulation sorts the working edge list by the full (U, V, W, ID) key
// and keeps the head of every duplicate run; profiling shows that sort
// dominating every iteration. The compactor instead follows the plan of
// the paper's Bor-AL, a counting sort by supervertex and then a short
// sort of each list, applied to the edge list:
//
//  1. Count. Each worker counts U over its block of the input into its
//     own n-entry histogram row, skipping self-loops, which therefore
//     never move.
//  2. Offsets. par.Scanner.TransposedExclusiveSum turns the p×n rows
//     into scatter offsets, vertex-major.
//  3. Scatter. Each worker moves its block's edges to their U segment.
//     Afterwards the last worker's row holds the end of every segment.
//  4. Sort. Dynamically scheduled over chunks of vertices, each U
//     segment is sorted by V in place: insertion sort up to
//     InsertionCutoff edges, LSD radix with 8-bit digits of V beyond
//     it, using the same range of the now-dead input buffer as
//     scratch. Each (U, V) run is then reduced to its minimum-(W, ID)
//     edge, packed at the front of the chunk, and starts[u] records
//     the segment's run count.
//  5. An exclusive scan over starts gives the output offsets.
//  6. Move. Each chunk's packed runs are copied to their output offset
//     in the input buffer, which becomes the output.
//
// Only (U, V) is ever sorted: the weight and the id merely pick the
// representative of each run, and that minimum is unique, so the output
// does not depend on the order in which a run's edges arrive. The
// number of passes over the whole list no longer grows with the bits of
// (U, V): one scatter, then cache-resident work per segment.
//
// CompactEdges runs the same phases on an undirected input list,
// scattering each edge to both endpoints, so the engines' setup never
// materializes the directed working list first.
//
// All state lives in buffers allocated by NewCompactor or owned by the
// caller and reused across rounds, so a steady-state call performs zero
// heap allocations.

import (
	"math/bits"

	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/par"
)

// vDigitBits is the width of one LSD digit of V, and vDigitsMax the
// most digits a 31-bit vertex id has.
const (
	vDigitBits = 8
	vDigitsMax = 4
	vRadix     = 1 << vDigitBits
)

// Compactor is the reusable parallel two-level compaction engine.
// Create one per run with NewCompactor and call CompactEdges once, then
// Compact once per contraction; the histograms and the prebound phase
// bodies are allocated once, so steady-state calls allocate nothing.
//
// A Compactor is owned by a single goroutine; the parallelism comes from
// the team it runs its phases on.
type Compactor struct {
	p    int
	team *par.Team
	scn  *par.Scanner

	hist   []int32 // p rows of n U counts, then offsets; row p-1 ends as the segment ends
	digits []int32 // per-worker LSD digit histograms, vDigitsMax·vRadix each
	maxSeg []int64 // per-worker longest segment, PadWords apart

	// Per-call state read by the prebound worker bodies.
	arcs    []graph.Edge  // CompactEdges input
	src     []graph.WEdge // Compact input
	m, n    int           // input length and supervertex count
	dst     []graph.WEdge // scatter target, sorted and reduced per segment
	out     []graph.WEdge // the dead input: sort scratch, then the output
	starts  []int64
	vDigits int

	countBody, scatterBody         func(int)
	countArcsBody, scatterArcsBody func(int)
	sortBody, moveBody             func(worker, lo, hi int)

	// Passes and MaxSegment describe the most recent call (recorded as
	// span attributes by the caller). Passes counts the sweeps that
	// move the longest segment's edges: the scatter by U, plus one per
	// digit of V when that segment is radix sorted. MaxSegment is the
	// largest U segment, the one piece of work a single worker does.
	Passes     int
	MaxSegment int
}

// NewCompactor returns a compactor running its phases on team (whose
// size must be p), for supervertex counts up to maxN.
func NewCompactor(p int, team *par.Team, maxN int) *Compactor {
	c := &Compactor{
		p:      p,
		team:   team,
		scn:    par.NewScanner(p, team),
		hist:   make([]int32, p*maxN),
		digits: make([]int32, p*vDigitsMax*vRadix),
		maxSeg: make([]int64, p*par.PadWords),
	}
	c.countBody = c.countWork
	c.scatterBody = c.scatterWork
	c.countArcsBody = c.countArcsWork
	c.scatterArcsBody = c.scatterArcsWork
	c.sortBody = c.sortWork
	c.moveBody = c.moveWork
	return c
}

// Compact sorts edges by (U, V), drops self-loops, reduces every
// duplicate (U, V) run to its minimum-(W, ID) edge, and fills starts
// (length n+1) with the per-vertex segment boundaries. The output
// occupies a prefix of edges' buffer; spare is scratch, returned to be
// passed again next time.
//
// Requirements: cap(spare) >= len(edges), len(starts) == n+1,
// n at most NewCompactor's maxN, and every endpoint in [0, n).
//
//msf:noalloc
func (c *Compactor) Compact(edges, spare []graph.WEdge, n int, starts []int64) (out, newSpare []graph.WEdge) {
	c.src, c.m = edges, len(edges)
	c.run(c.countBody, c.scatterBody, edges, spare, n, starts)
	c.src = nil
	return c.out, spare
}

// CompactEdges is Compact over the directed working list of the
// undirected list edges, without building it: each non-loop edge i
// enters as the arcs (U, V) and (V, U), both with ID i. The output
// occupies a prefix of buf; spare is scratch. Both need capacity for
// 2·len(edges) arcs.
//
//msf:noalloc
func (c *Compactor) CompactEdges(edges []graph.Edge, buf, spare []graph.WEdge, n int, starts []int64) (out, newSpare []graph.WEdge) {
	c.arcs, c.m = edges, len(edges)
	c.run(c.countArcsBody, c.scatterArcsBody, buf[:cap(buf)], spare, n, starts)
	c.arcs = nil
	return c.out, spare
}

// run executes the six phases with the given count and scatter bodies;
// buf is the input's buffer, which ends up holding the output.
//
//msf:noalloc
func (c *Compactor) run(count, scatter func(int), buf, spare []graph.WEdge, n int, starts []int64) {
	c.n, c.starts = n, starts
	c.vDigits = max(1, (bits.Len32(uint32(max(n, 1)-1))+vDigitBits-1)/vDigitBits)
	c.Passes, c.MaxSegment = 0, 0
	if c.m == 0 || n == 0 {
		clear(starts)
		c.out = buf[:0]
		return
	}
	hist := c.hist[:c.p*n]

	c.team.Run(count)
	total := int(c.scn.TransposedExclusiveSum(hist, c.p, n))
	c.dst = spare[:total]
	c.team.Run(scatter)

	c.out = buf[:total]
	clear(c.maxSeg)
	grain := min(256, max(1, n/(8*c.p))) // a few chunks per worker when n is small
	c.team.ForDynamic(n, grain, c.sortBody)
	for w := 0; w < c.p; w++ {
		c.MaxSegment = max(c.MaxSegment, int(c.maxSeg[w*par.PadWords]))
	}
	kept := par.ExclusiveSumInt64(starts[:n])
	starts[n] = kept
	c.out = buf[:kept]
	c.team.ForDynamic(n, grain, c.moveBody)
	c.dst = nil

	c.Passes = 1
	if c.MaxSegment > InsertionCutoff {
		c.Passes += c.vDigits
	}
	elements := c.m
	if c.arcs != nil {
		elements *= 2
	}
	obs.RadixPasses.Add(int64(c.Passes))
	obs.SortElements.Add(int64(elements))
	// Bytes that the sort-allocating engines would have taken fresh
	// from the heap: both edge buffers and the starts.
	const wedgeBytes = 24
	obs.WorkspaceReused.Add(int64(elements)*2*wedgeBytes + int64(n+1)*8)
}

// countWork zeroes and fills this worker's histogram row with the U
// counts of its block's non-loop edges.
//
//msf:noalloc
func (c *Compactor) countWork(w int) {
	lo, hi := par.Block(c.m, c.p, w)
	h := c.hist[w*c.n : (w+1)*c.n]
	clear(h)
	for _, e := range c.src[lo:hi] {
		if e.U != e.V {
			h[e.U]++
		}
	}
}

// scatterWork moves this worker's block's non-loop edges to their
// offsets in its histogram row.
//
//msf:noalloc
func (c *Compactor) scatterWork(w int) {
	lo, hi := par.Block(c.m, c.p, w)
	h := c.hist[w*c.n : (w+1)*c.n]
	dst := c.dst
	for _, e := range c.src[lo:hi] {
		if e.U != e.V {
			dst[h[e.U]] = e
			h[e.U]++
		}
	}
}

// countArcsWork is countWork over an undirected block: a non-loop edge
// counts at both endpoints.
//
//msf:noalloc
func (c *Compactor) countArcsWork(w int) {
	lo, hi := par.Block(c.m, c.p, w)
	h := c.hist[w*c.n : (w+1)*c.n]
	clear(h)
	for _, e := range c.arcs[lo:hi] {
		if e.U != e.V {
			h[e.U]++
			h[e.V]++
		}
	}
}

// scatterArcsWork is scatterWork over an undirected block: a non-loop
// edge goes to both endpoints' segments as its two arcs.
//
//msf:noalloc
func (c *Compactor) scatterArcsWork(w int) {
	lo, hi := par.Block(c.m, c.p, w)
	h := c.hist[w*c.n : (w+1)*c.n]
	dst := c.dst
	for i, e := range c.arcs[lo:hi] {
		if e.U != e.V {
			id := int32(lo + i)
			dst[h[e.U]] = graph.WEdge{U: e.U, V: e.V, ID: id, W: e.W}
			h[e.U]++
			dst[h[e.V]] = graph.WEdge{U: e.V, V: e.U, ID: id, W: e.W}
			h[e.V]++
		}
	}
}

// sortWork sorts the U segments of vertices [lo, hi) by V, reduces each
// (U, V) run to its minimum-(W, ID) edge, and stores the run count in
// starts[u]. The reduced runs of the whole chunk are packed at the
// chunk's front in dst: every write lands at or before the edge being
// read, and only this worker touches the chunk.
//
//msf:noalloc
func (c *Compactor) sortWork(w, lo, hi int) {
	ends := c.hist[(c.p-1)*c.n : c.p*c.n]
	dst, scratch, starts := c.dst, c.out, c.starts
	begin := c.segBegin(lo)
	packed := begin
	longest := int(c.maxSeg[w*par.PadWords])
	for u := lo; u < hi; u++ {
		end := int(ends[u])
		seg := dst[begin:end]
		if len(seg) > InsertionCutoff {
			c.radixByV(w, seg, scratch[begin:end])
		} else {
			insertionByV(seg)
		}
		longest = max(longest, len(seg))
		k := reduceRuns(seg, dst[packed:])
		starts[u] = int64(k)
		packed += k
		begin = end
	}
	c.maxSeg[w*par.PadWords] = int64(longest)
}

// moveWork copies the packed runs of the chunk [lo, hi) to its output
// offset. ForDynamic with the same n and grain hands out the same
// chunks as the sort phase, so each chunk's runs are one block.
//
//msf:noalloc
func (c *Compactor) moveWork(_, lo, hi int) {
	from, to := c.starts[lo], c.starts[hi]
	begin := int64(c.segBegin(lo))
	copy(c.out[from:to], c.dst[begin:begin+to-from])
}

// segBegin is the offset of vertex u's segment in dst.
//
//msf:noalloc
func (c *Compactor) segBegin(u int) int {
	if u == 0 {
		return 0
	}
	return int(c.hist[(c.p-1)*c.n+u-1])
}

// insertionByV sorts seg by V.
//
//msf:noalloc
func insertionByV(seg []graph.WEdge) {
	for i := 1; i < len(seg); i++ {
		x := seg[i]
		j := i
		for j > 0 && seg[j-1].V > x.V {
			seg[j] = seg[j-1]
			j--
		}
		seg[j] = x
	}
}

// radixByV sorts seg by V with LSD passes over the 8-bit digits of V,
// ping-ponging through scratch (len(scratch) == len(seg)). All digits
// are counted in one read, and a digit every edge shares is skipped.
//
//msf:noalloc
func (c *Compactor) radixByV(w int, seg, scratch []graph.WEdge) {
	nd := c.vDigits
	h := c.digits[w*vDigitsMax*vRadix : (w*vDigitsMax+nd)*vRadix]
	clear(h)
	for _, e := range seg {
		v := uint32(e.V)
		for d := 0; d < nd; d++ {
			h[d*vRadix+int(v>>(d*vDigitBits))&(vRadix-1)]++
		}
	}
	src, dst := seg, scratch
	for d := 0; d < nd; d++ {
		shift := d * vDigitBits
		hd := h[d*vRadix : (d+1)*vRadix]
		if int(hd[int(uint32(src[0].V)>>shift)&(vRadix-1)]) == len(src) {
			continue
		}
		var sum int32
		for i, k := range hd {
			hd[i] = sum
			sum += k
		}
		for _, e := range src {
			k := int(uint32(e.V)>>shift) & (vRadix - 1)
			dst[hd[k]] = e
			hd[k]++
		}
		src, dst = dst, src
	}
	if &src[0] != &seg[0] {
		copy(seg, src)
	}
}

// reduceRuns reduces every V run of the V-sorted seg to its
// minimum-(W, ID) edge, written in order to out, and returns the run
// count. out may alias seg if it starts at or before it.
//
//msf:noalloc
func reduceRuns(seg, out []graph.WEdge) int {
	if len(seg) == 0 {
		return 0
	}
	k := 0
	best := seg[0]
	for _, x := range seg[1:] {
		if x.V != best.V {
			out[k] = best
			k++
			best = x
		} else if x.W < best.W || (x.W == best.W && x.ID < best.ID) {
			best = x
		}
	}
	out[k] = best
	return k + 1
}
