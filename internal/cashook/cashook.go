// Package cashook implements Bor-CAS, a lock-free minimum spanning
// forest engine: a parallel Filter-Kruskal (Osipov, Sanders and
// Singler) over the CAS-hook union-find of the GBBS nd.h
// spanning-forest algorithm.
//
// Each step of the recursion picks a weight pivot from a random sample
// of its edges, splits them into light and heavy ones in one stable
// parallel pass, solves the light part, then drops every heavy edge
// whose endpoints already share a root — a parallel Find pass behind
// the team barrier — and recurses on the heavy edges that are left.
// On a graph with m/n ≥ 2 most heavy edges die in that filter and are
// never sorted. The working sets are lists of edge ids into the input,
// so a pass moves 4 bytes per edge, and the pass picks each edge's
// class and output slot by arithmetic and conditional selects, not by
// branches that random weights make unpredictable. At or below a
// cutoff of min(n, 2^17) edges, about what the filters leave, the base
// case gathers its edges, sorts them with the stable parallel radix
// sort sorts.WeightSorter, and hooks them. A degenerate split (every
// live key equal to the pivot, as with all-equal weights) is one
// weight bucket and is hooked without a sort.
//
// The hook is Kruskal on weight buckets (maximal runs of equal weight):
// buckets are processed in increasing weight order, and inside a bucket
// every edge races concurrently through uf.Concurrent.UnionEdge, whose
// CAS-hook protocol records the winning edge id into a per-vertex hook
// slot. Because all edges of a bucket share one weight, any maximal
// acyclic subset the races select has the same total weight, edge count
// and resulting component partition as Kruskal's choice (the matroid
// exchange property), so the forest weight is exactly the MSF weight
// under arbitrary interleavings. The splits send every edge of one
// weight to the same side and the filter drops only edges that would
// close a cycle, so neither changes that argument.
//
// Finish runs the same recursion on a caller's team over a graph given
// by reference: ids into an edge list, each endpoint read through a
// vertex map. MST-BC (internal/mstbc) finishes that way, on the labels
// of its last level, without copying the edges it leaves.
//
// Unlike the Borůvka variants there is no round loop over the graph at
// all: no find-min scans, no connect-components, no compact-graph. On
// inputs with heavy weight ties whole buckets hook in parallel; with
// fully distinct weights buckets degenerate to singletons and the hook
// is a lock-free-UF Kruskal over the edges that survive the filter.
package cashook

import (
	"slices"
	"sync/atomic"

	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/par"
	"pmsf/internal/rng"
	"pmsf/internal/sorts"
	"pmsf/internal/uf"
)

// Options configures a Bor-CAS run.
type Options struct {
	// Workers is the number of parallel workers p; 0 means GOMAXPROCS.
	Workers int
	// Seed drives the Filter-Kruskal pivot samples only; the result is
	// identical for every seed.
	Seed uint64
	// Trace, when non-nil, receives the setup/filter/sort/hook/collect
	// spans under a root span that carries the leaf cutoff (cutoff);
	// hook carries the run's bucket counts (buckets, max_bucket,
	// parallel_buckets) and filter the heavy edges dropped so far
	// (filtered).
	Trace *obs.Collector
}

// parCutoff is the bucket length at which hooking moves onto the worker
// team; shorter buckets are hooked inline by the calling goroutine (the
// team barrier costs more than a handful of CAS loops).
const parCutoff = 512

// hookGrain is the ForDynamic chunk size of the parallel hook phase.
const hookGrain = 256

// maxCutoff caps the base-case cutoff: Run stops splitting and sorts a
// task of at most min(n, maxCutoff) edges. A leaf of about n edges is
// what the filter leaves anyway (Sanders and Schimek size the base case
// by n), so a smaller graph is filtered rather than sorted whole.
const maxCutoff = 1 << 17

// blocksPerWorker is the number of blocks a team pass is cut into per
// worker; the workers claim blocks, so a worker that starts late or runs
// slow (its CPU shared with other work) leaves its share to the others.
const blocksPerWorker = 8

// sampleSize is the number of edges a pivot is drawn from.
const sampleSize = 63

// Edge classes of a split pass, and the per-block counter slots: a
// class counts at its own index, the scatter offsets live after them.
const (
	dead    = iota // self-loop, or endpoints already share a root
	less           // key below the pivot
	equal          // key equal to the pivot
	greater        // key above the pivot
	loops          // self-loops (also class dead)
	lightAt        // scatter offset of the light part
	heavyAt        // scatter offset of the heavy part
	deadAt         // scatter offset of the dead edges, after the survivors
)

// allClasses is the light mask that keeps every live edge together.
const allClasses = 1<<less | 1<<equal | 1<<greater

// task is one pending Filter-Kruskal subproblem: the edge ids at
// [lo, hi) of ids[buf]. filter marks a heavy part, whose edges must
// first be checked against the forest hooked since it was split off;
// root marks the input, which may hold self-loops.
type task struct {
	lo, hi int
	buf    int
	filter bool
	root   bool
}

// run is the Filter-Kruskal state: everything is allocated in newRun,
// and step() (one split or one base case per call) performs no heap
// allocation, pinned by TestBorCASRoundZeroAllocs.
type run struct {
	p      int
	cutoff int
	team   *par.Team
	u      *uf.Concurrent
	hooks  []int32      // CAS-hook slots, mutated only through uf.UnionEdge
	edges  []graph.Edge // the input; every working set holds ids into it
	vmap   []int32      // each endpoint x is read as vmap[x]; nil reads x
	ids    [2][]int32   // ping-pong id buffers
	class  []uint8
	counts []int64 // per-block class counts and offsets, par.PadWords apart
	sample []uint64
	rnd    *rng.Xoshiro256
	stack  []task
	root   obs.Span

	sorter      *sorts.WeightSorter
	leaf, spare []graph.WEdge // the base case's gathered edges and the sort's scratch

	// Per-pass state read by the prebound bodies: a pass covers n items
	// in nb blocks, claimed through next when it runs on the team.
	src, dst  []int32
	cls       []uint8
	n, nb     int
	next      atomic.Int64
	block     func(b int)
	pivot     uint64
	filter    bool
	lightMask uint8 // classes (as bits) that go to the light part

	// Bucket-loop state: the sorted leaf and its cursor, or the ids of
	// one tied bucket.
	sorted []graph.WEdge
	cur    int
	lo     int // current bucket start, read by hookBody
	tied   []int32

	buckets, maxBucket, parBuckets int
	sortedEdges, filtered          int64

	classBlock, scatterBlock, gatherBlock func(int)
	passBody                              func(int)
	hookBody, tiedBody                    func(worker, lo, hi int)
}

func workers(opt Options) int {
	if opt.Workers <= 0 {
		return par.DefaultWorkers()
	}
	return opt.Workers
}

// newRun prepares the Filter-Kruskal state of a Run over every edge of
// g, on a team of its own, with the given base-case cutoff; the root
// task is on the stack.
func newRun(g *graph.EdgeList, opt Options, root obs.Span, cutoff int) *run {
	sp := root.Child("setup")
	r := prepare(par.NewTeam(workers(opt)), g.Edges, nil, nil, g.N, opt.Seed, root, cutoff)
	sp.End()
	return r
}

// prepare builds the Filter-Kruskal state on team for the graph on n
// vertices whose edges are edges[id] for id in ids (every edge when ids
// is nil), endpoints read through vmap; the root task (all of ids,
// which becomes the first ping-pong buffer) is on the stack.
func prepare(team *par.Team, edges []graph.Edge, ids, vmap []int32, n int, seed uint64, root obs.Span, cutoff int) *run {
	p := team.P()
	every := ids == nil
	if every {
		ids = make([]int32, len(edges))
	}
	m := len(ids)
	cutoff = max(cutoff, 1)
	leaf := min(m, cutoff)
	r := &run{
		p:      p,
		cutoff: cutoff,
		team:   team,
		edges:  edges,
		vmap:   vmap,
		counts: make([]int64, p*blocksPerWorker*par.PadWords),
		sample: make([]uint64, sampleSize),
		rnd:    rng.New(seed),
		stack:  make([]task, 0, 64),
		root:   root,
	}
	r.classBlock = r.classWork
	r.scatterBlock = r.scatterWork
	r.gatherBlock = r.gatherWork
	r.passBody = r.claimBlocks
	r.hookBody = r.hookWork
	r.tiedBody = r.tiedWork

	r.ids[0] = ids
	r.ids[1] = make([]int32, m)
	r.class = make([]uint8, m)
	r.leaf = make([]graph.WEdge, leaf)
	r.spare = make([]graph.WEdge, leaf)
	r.sorter = sorts.NewWeightSorter(p, r.team, leaf)
	r.u = uf.NewConcurrent(n)
	r.hooks = make([]int32, n)
	r.team.For(max(m, n), func(_, lo, hi int) {
		for i := lo; every && i < min(hi, m); i++ {
			ids[i] = int32(i)
		}
		for v := lo; v < min(hi, n); v++ {
			r.hooks[v] = uf.NoEdge
		}
	})
	if m > 0 {
		r.stack = append(r.stack, task{lo: 0, hi: m, root: true})
	}
	return r
}

// close releases the worker team.
func (r *run) close() { r.team.Close() }

// step runs the task on top of the stack — a split, or a base case —
// and reports whether one existed.
//
//msf:noalloc
func (r *run) step() bool {
	n := len(r.stack)
	if n == 0 {
		return false
	}
	t := r.stack[n-1]
	r.stack = r.stack[:n-1]
	if !t.filter && !t.root && t.hi-t.lo <= r.cutoff {
		// A light part within the cutoff: it holds no dead edge.
		r.base(r.ids[t.buf][t.lo:t.hi])
		return true
	}
	r.split(t)
	return true
}

// split runs one classify/scatter pass over t into the other buffer:
// dead edges (self-loops, and in a filtered task edges whose endpoints
// already share a root) are dropped, and the survivors are split around
// a sampled pivot into light then heavy, stably. The heavy part is
// pushed first, so the light part is solved before it is filtered.
// Survivors that fit the cutoff go to the base case, and survivors that
// all share the pivot's weight are hooked as one bucket.
//
//msf:noalloc
func (r *run) split(t task) {
	sp := r.root.Child("filter")
	size := t.hi - t.lo
	live := r.setPass(t)
	r.runPass(r.classBlock)

	var nl, ne, ng, nloops int64
	for b := 0; b < r.nb; b++ {
		c := r.counts[b*par.PadWords:]
		nl, ne, ng, nloops = nl+c[less], ne+c[equal], ng+c[greater], nloops+c[loops]
	}
	surv := nl + ne + ng
	r.filtered += int64(size) - surv - nloops

	// Light takes the pivot's ties unless that leaves heavy empty (the
	// pivot is the largest key) or "less" alone is the more even split.
	light := surv
	r.lightMask = allClasses
	switch {
	case !live || surv <= int64(r.cutoff) || (nl == 0 && ng == 0):
	case ng == 0 || (nl > 0 && abs(2*nl-surv) < abs(2*(nl+ne)-surv)):
		light, r.lightMask = nl, 1<<less
	default:
		light, r.lightMask = nl+ne, 1<<less|1<<equal
	}
	lpos, hpos, dpos := int64(0), light, surv
	for b := 0; b < r.nb; b++ {
		c := r.counts[b*par.PadWords:]
		c[lightAt], c[heavyAt], c[deadAt] = lpos, hpos, dpos
		dpos += c[dead]
		for k := less; k <= greater; k++ {
			if r.lightMask>>k&1 != 0 {
				lpos += c[k]
			} else {
				hpos += c[k]
			}
		}
	}
	r.runPass(r.scatterBlock)
	sp.SetInt("edges", int64(size))
	sp.SetInt("filtered", r.filtered)
	sp.End()

	lo, mid, hi, b := t.lo, t.lo+int(light), t.lo+int(surv), 1-t.buf
	switch {
	case lo == hi:
	case surv <= int64(r.cutoff):
		r.base(r.ids[b][lo:hi])
	case !live:
		// No live edge in the sample: split the compacted survivors again.
		r.stack = append(r.stack, task{lo: lo, hi: hi, buf: b}) //msf:ignore noalloc newRun allocates the stack 64 tasks deep; only a deeper recursion grows it
	case mid == hi:
		r.hookTied(r.ids[b][lo:hi])
	default:
		r.stack = append(r.stack, task{lo: mid, hi: hi, buf: b, filter: true}, task{lo: lo, hi: mid, buf: b}) //msf:ignore noalloc newRun allocates the stack 64 tasks deep; only a deeper recursion grows it
	}
}

// setPass points the pass state at task t and, when t is beyond the
// cutoff, draws its pivot; it reports whether the pivot sample held a
// live edge.
//
//msf:noalloc
func (r *run) setPass(t task) bool {
	r.src, r.dst = r.ids[t.buf][t.lo:t.hi], r.ids[1-t.buf][t.lo:t.hi]
	r.cls, r.filter = r.class[t.lo:t.hi], t.filter
	r.setBlocks(t.hi - t.lo)
	return t.hi-t.lo > r.cutoff && r.pickPivot()
}

// setBlocks sizes a pass over n items: one block on the caller below
// par.SeqCutoff, blocksPerWorker blocks a worker otherwise.
//
//msf:noalloc
func (r *run) setBlocks(n int) {
	r.n, r.nb = n, 1
	if n >= par.SeqCutoff && r.p > 1 {
		r.nb = r.p * blocksPerWorker
	}
}

// pickPivot sets the pivot to the median key of a random sample of the
// task's live edges and reports whether the sample held any.
//
//msf:noalloc
func (r *run) pickPivot() bool {
	k := 0
	for i := 0; i < sampleSize; i++ {
		e := r.edges[r.src[r.rnd.Intn(r.n)]]
		u, v := e.U, e.V
		if r.vmap != nil {
			u, v = r.vmap[u], r.vmap[v]
		}
		if u == v || (r.filter && r.u.Find(u) == r.u.Find(v)) {
			continue
		}
		r.sample[k] = sorts.WeightKey(e.W)
		k++
	}
	if k == 0 {
		return false
	}
	s := r.sample[:k]
	slices.Sort(s)
	r.pivot = s[k/2]
	return true
}

// runPass runs block over the pass's blocks: on the caller for a single
// block, claimed by the team's workers otherwise.
//
//msf:noalloc
func (r *run) runPass(block func(int)) {
	if r.nb == 1 {
		block(0)
		return
	}
	r.block = block
	r.next.Store(0)
	r.team.Run(r.passBody)
}

// claimBlocks runs the pass's block body on blocks claimed from the
// shared counter until none is left.
//
//msf:noalloc
func (r *run) claimBlocks(int) {
	for b := int(r.next.Add(1)) - 1; b < r.nb; b = int(r.next.Add(1)) - 1 {
		r.block(b)
	}
}

// classWork classifies block b of the task and counts the classes. The
// vertex map's nil test is the same for every edge, so it costs no
// misprediction.
//
//msf:noalloc
func (r *run) classWork(b int) {
	lo, hi := par.Block(r.n, r.nb, b)
	edges, vmap, src, cls := r.edges, r.vmap, r.src, r.cls
	pivot, filter := r.pivot, r.filter
	var cnt [loops + 1]int64
	for i := lo; i < hi; i++ {
		e := edges[src[i]]
		u, v := e.U, e.V
		if vmap != nil {
			u, v = vmap[u], vmap[v]
		}
		c := uint8(dead)
		switch {
		case u == v:
			cnt[loops]++
		case filter && r.u.Find(u) == r.u.Find(v):
		default:
			k := sorts.WeightKey(e.W)
			c = less + bit(k >= pivot) + bit(k > pivot)
		}
		cnt[c]++
		cls[i] = c
	}
	copy(r.counts[b*par.PadWords:], cnt[:])
}

// scatterWork writes the edges of block b to their light, heavy or dead
// slots, in order. The slot is a conditional select over the three
// cursors, not a branch on the class: on random weights the class is a
// coin flip. Dead edges land past the survivors, in slots no task reads.
//
//msf:noalloc
func (r *run) scatterWork(b int) {
	lo, hi := par.Block(r.n, r.nb, b)
	src, dst, cls, mask := r.src, r.dst, r.cls, r.lightMask
	c := r.counts[b*par.PadWords:]
	lpos, hpos, dpos := c[lightAt], c[heavyAt], c[deadAt]
	for i := lo; i < hi; i++ {
		k := cls[i]
		light := int64(mask >> k & 1)
		live := int64(bit(k != dead))
		pos := dpos
		if live != 0 {
			pos = hpos
		}
		if light != 0 {
			pos = lpos
		}
		dst[pos] = src[i]
		lpos += light
		hpos += live - light
		dpos += 1 - live
	}
}

// bit is 1 for true and 0 for false; the compiler emits it as a SETcc,
// with no branch.
func bit(b bool) uint8 {
	var x uint8
	if b {
		x = 1
	}
	return x
}

// base gathers the edges of ids, sorts them and hooks them bucket by
// bucket.
//
//msf:noalloc
func (r *run) base(ids []int32) {
	sp := r.root.Child("sort")
	r.src = ids
	r.setBlocks(len(ids))
	r.runPass(r.gatherBlock)
	r.sorted, r.cur = r.sorter.Sort(r.leaf[:len(ids)], r.spare), 0
	r.sortedEdges += int64(len(ids))
	sp.SetInt("elements", r.sortedEdges)
	sp.End()

	hp := r.root.Child("hook")
	for r.round() {
	}
	r.hookArgs(&hp)
	hp.End()
}

// gatherWork builds block b of the base case's edges.
//
//msf:noalloc
func (r *run) gatherWork(b int) {
	lo, hi := par.Block(r.n, r.nb, b)
	edges, vmap, src, leaf := r.edges, r.vmap, r.src, r.leaf
	for i := lo; i < hi; i++ {
		id := src[i]
		e := edges[id]
		if vmap != nil {
			e.U, e.V = vmap[e.U], vmap[e.V]
		}
		leaf[i] = graph.WEdge{U: e.U, V: e.V, ID: id, W: e.W}
	}
}

// round processes the next weight bucket of the sorted leaf (the
// maximal run of equal weight at the cursor) and reports whether one
// existed. Long buckets hook concurrently on the team; short ones
// inline on the caller.
//
//msf:noalloc
func (r *run) round() bool {
	m := len(r.sorted)
	if r.cur >= m {
		return false
	}
	lo := r.cur
	w := r.sorted[lo].W
	hi := lo + 1
	for hi < m && r.sorted[hi].W == w {
		hi++
	}
	r.cur = hi
	if r.bucket(hi - lo) {
		r.lo = lo
		r.team.ForDynamic(hi-lo, hookGrain, r.hookBody)
		return true
	}
	for i := lo; i < hi; i++ {
		e := r.sorted[i]
		r.u.UnionEdge(e.U, e.V, e.ID, r.hooks)
	}
	return true
}

// bucket counts a bucket of n edges and reports whether it hooks on the
// team.
//
//msf:noalloc
func (r *run) bucket(n int) bool {
	r.buckets++
	r.maxBucket = max(r.maxBucket, n)
	if n >= parCutoff && r.p > 1 {
		r.parBuckets++
		return true
	}
	return false
}

//msf:noalloc
func (r *run) hookWork(_, lo, hi int) {
	edges, hooks := r.sorted[r.lo:], r.hooks
	for i := lo; i < hi; i++ {
		e := edges[i]
		r.u.UnionEdge(e.U, e.V, e.ID, hooks)
	}
}

// hookTied hooks ids, a task whose live edges all share one weight, as
// one bucket, straight from the input edges.
//
//msf:noalloc
func (r *run) hookTied(ids []int32) {
	hp := r.root.Child("hook")
	r.tied = ids
	if r.bucket(len(ids)) {
		r.team.ForDynamic(len(ids), hookGrain, r.tiedBody)
	} else {
		r.tiedWork(0, 0, len(ids))
	}
	r.hookArgs(&hp)
	hp.End()
}

//msf:noalloc
func (r *run) tiedWork(_, lo, hi int) {
	edges, vmap, ids, hooks := r.edges, r.vmap, r.tied, r.hooks
	for i := lo; i < hi; i++ {
		e := edges[ids[i]]
		if vmap != nil {
			e.U, e.V = vmap[e.U], vmap[e.V]
		}
		r.u.UnionEdge(e.U, e.V, ids[i], hooks)
	}
}

// hookArgs records the run's bucket counts so far on a hook span.
//
//msf:noalloc
func (r *run) hookArgs(hp *obs.Span) {
	hp.SetInt("buckets", int64(r.buckets))
	hp.SetInt("max_bucket", int64(r.maxBucket))
	hp.SetInt("parallel_buckets", int64(r.parBuckets))
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// Run computes the minimum spanning forest of g.
func Run(g *graph.EdgeList, opt Options) *graph.Forest {
	return solve(g, opt, min(g.N, maxCutoff))
}

// Finish computes the minimum spanning forest of a graph given by
// reference into edges: its vertices are [0, n), its edges are edges[id]
// for each id in ids, and each endpoint x reads as vmap[x] (x itself
// when vmap is nil). It runs on team, which stays open, and records its
// filter, sort and hook spans under sp. The forest's ids index edges
// and its components count the n vertices. ids is overwritten.
func Finish(team *par.Team, edges []graph.Edge, ids, vmap []int32, n int, seed uint64, sp obs.Span) *graph.Forest {
	r := prepare(team, edges, ids, vmap, n, seed, sp, min(n, maxCutoff))
	for r.step() {
	}
	return collect(team, edges, r.hooks)
}

// solve is Run with the given base-case cutoff.
func solve(g *graph.EdgeList, opt Options, cutoff int) *graph.Forest {
	p := workers(opt)
	root := opt.Trace.Start("Bor-CAS", "Bor-CAS")
	root.SetInt("workers", int64(p))

	r := newRun(g, opt, root, cutoff)
	defer r.close()
	root.SetInt("cutoff", int64(r.cutoff))
	opt.Trace.Labeled("Bor-CAS", "filter-kruskal", func() {
		for r.step() {
		}
	})

	cp := root.Child("collect")
	var f *graph.Forest
	opt.Trace.Labeled("Bor-CAS", "collect", func() {
		f = collect(r.team, r.edges, r.hooks)
	})
	cp.SetInt("forest_edges", int64(len(f.EdgeIDs)))
	cp.End()
	root.End()
	return f
}

// collect gathers the claimed hook slots into the Forest: the hooked ids
// are the forest edges and every unhooked vertex is the root of one
// component. The hook phase has quiesced behind the team barrier, so
// plain reads are safe here.
func collect(team *par.Team, edges []graph.Edge, hooks []int32) *graph.Forest {
	picked := team.PackIndices(len(hooks), func(v int) bool {
		return hooks[v] != uf.NoEdge
	})
	f := &graph.Forest{
		EdgeIDs:    make([]int32, len(picked)),
		Components: len(hooks) - len(picked),
	}
	for i, v := range picked {
		id := hooks[v]
		f.EdgeIDs[i] = id
		f.Weight += edges[id].W
	}
	return f
}
