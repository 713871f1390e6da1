// Package mstbc implements the paper's new parallel MSF algorithm
// (Section 4, Algorithms 1 and 2): p coordinated instances of Prim's
// algorithm grow vertex-disjoint subtrees concurrently over the shared
// graph. A processor claims an uncolored vertex with a CAS, grows a tree
// with a private heap while all frontier vertices can still be claimed,
// and stops growing ("the tree is mature") on a collision with another
// processor's color. Unvisited vertices then select their lightest
// incident edge (a Borůvka step), mature subtrees are contracted with a
// lock-free union-find, and the algorithm recurses on the contracted
// graph until the problem is small.
//
// The paper then finishes with the best sequential algorithm. Here the
// finish is Bor-CAS's parallel Filter-Kruskal (cashook.Finish) on the
// run's own team, and it also takes over early, as a departure from the
// paper: once the edges a level leaves outnumber its supervertices
// denseFactor-fold, contraction has stopped paying (on a random graph
// it barely shrinks m), so that level's relabel and compaction are
// skipped and its labels go straight to the filter.
//
// On one processor the algorithm behaves as Prim's; on n processors it
// degenerates to Borůvka's; for 1 < p < n it is the paper's hybrid.
package mstbc

import (
	"math"
	"sync/atomic"

	"pmsf/internal/boruvka"
	"pmsf/internal/cashook"
	"pmsf/internal/graph"
	"pmsf/internal/heap"
	"pmsf/internal/obs"
	"pmsf/internal/par"
	"pmsf/internal/rng"
	"pmsf/internal/sorts"
	"pmsf/internal/uf"
)

// Options configures an MST-BC run.
type Options struct {
	// Workers is the number of concurrent Prim instances p; 0 means
	// GOMAXPROCS.
	Workers int
	// BaseSize is the paper's n_b: once the contracted graph has at most
	// this many supervertices, the finish (Bor-CAS's Filter-Kruskal)
	// solves the rest. 0 means DefaultBaseSize.
	BaseSize int
	// Permute randomizes the vertex claim order each round — the paper's
	// progress guarantee against adversarial synchronization. Disabled
	// only by the ablation benchmarks.
	NoPermute bool
	// Seed drives the claim-order permutation and the per-worker
	// work-stealing victim order.
	Seed uint64
	// Trace, when non-nil, receives hierarchical spans for every level
	// and phase: a "level" child of the root per contraction, carrying
	// n, m, trees, collisions, steals and visited, with grow (carrying
	// arc_scans), fixup and contract children, then, when edges are
	// left, a "finish" child carrying n, m and dense (1 when the level's
	// live edges outnumbered its supervertices denseFactor-fold), with
	// Bor-CAS's filter, sort and hook spans under it.
	Trace *obs.Collector
}

// DefaultBaseSize is the default base-case cutoff n_b.
const DefaultBaseSize = 256

// denseFactor is the hand-off rule's d: a level whose live edges number
// at least d times its supervertices is not contracted, and the finish
// takes its labels instead.
const denseFactor = 4

// partition is a work-stealing range of the claim order: the owner takes
// from the front, thieves from the back (the paper's decreasing pointer).
// Packed head/tail in one word keeps claims lock-free, and the padding
// keeps each partition's word on a cache line of its own.
type partition struct {
	// state packs the unclaimed range [head, tail) as head<<32|tail,
	// built by packRange and decoded by unpackRange only.
	//
	//msf:packed
	state atomic.Uint64
	_     [par.PadWords - 1]uint64
}

// packRange packs a claim range's bounds into one state word.
//
//msf:packer
func packRange(head, tail uint32) uint64 {
	return uint64(head)<<32 | uint64(tail)
}

// unpackRange recovers a claim range's bounds from the state word.
//
//msf:unpacker
func unpackRange(s uint64) (head, tail uint32) {
	return uint32(s >> 32), uint32(s)
}

func (pt *partition) init(lo, hi int) {
	pt.state.Store(packRange(uint32(lo), uint32(hi)))
}

func (pt *partition) takeFront() (int, bool) {
	for {
		s := pt.state.Load()
		head, tail := unpackRange(s)
		if head >= tail {
			return 0, false
		}
		if pt.state.CompareAndSwap(s, packRange(head+1, tail)) {
			return int(head), true
		}
	}
}

func (pt *partition) takeBack() (int, bool) {
	for {
		s := pt.state.Load()
		head, tail := unpackRange(s)
		if head >= tail {
			return 0, false
		}
		if pt.state.CompareAndSwap(s, packRange(head, tail-1)) {
			return int(tail - 1), true
		}
	}
}

// Run computes the minimum spanning forest of g with the MST-BC
// algorithm.
func Run(g *graph.EdgeList, opt Options) *graph.Forest {
	r := newRun(g, opt)
	defer r.close()
	// A level hands off when it leaves its live edges to the finish
	// uncontracted (see contract); a graph already within n_b goes to
	// the finish whole.
	handoff := len(r.edges) > 0 && r.n <= r.nb
	if handoff {
		r.countLive()
	}
	for level := 0; !handoff && len(r.edges) > 0; level++ {
		if level == 64 {
			// Progress is guaranteed (see the zero-selection fallback in
			// fixup), so this is purely defensive.
			panic("mstbc: no convergence after 64 levels")
		}
		handoff = r.level()
	}
	if handoff {
		r.finish()
	}
	r.root.End()
	return finishForest(g, r.ws.ForestIDs(), r.n)
}

// algoName is the span/category/pprof-label name of the algorithm.
const algoName = "MST-BC"

// run is the state of one MST-BC run. The Borůvka round workspace (the
// worker team, its label resolver, the selection arrays and the forest
// ids), the two-level compactor on the same team, and every per-level
// buffer are created once, sized for level 0 (levels only shrink), and
// resliced level by level, so the recursion allocates almost nothing
// after setup.
type run struct {
	p, nb int
	opt   Options
	c     *obs.Collector
	root  obs.Span
	input []graph.Edge
	ws    *boruvka.Workspace
	team  *par.Team // ws's team
	comp  *sorts.Compactor
	rng   *rng.Xoshiro256

	// Working graph: the Bor-EL state (directed edges sorted by U with
	// per-vertex segment starts) doubles as a CSR for the Prim growth.
	// edges and spare ping-pong through the compactor.
	edges, spare []graph.WEdge
	starts       []int64
	n            int
	// vmap takes each input vertex to its working-graph vertex: the
	// labels of every contracted level composed, nil before the first.
	vmap []int32

	// Per-level scratch, indexed by supervertex. color and visited are
	// read and written atomically while the trees grow; parent and sel
	// are ws's selection arrays.
	order    []int32
	color    []int64 // 0 = uncolored
	visited  []int32 // 1 = in a mature tree
	parent   []int32 // selected neighbor, v itself when none
	sel      []int32 // id of the selected edge
	rep      []int32 // union-find root of each supervertex
	labels   []int32 // dense labels of the current contraction
	counts   []int64 // per-worker live input edge counts, then offsets, par.PadWords apart
	ids      []int32 // the finish's edge ids into the input
	u        *uf.Concurrent
	heaps    []*heap.IndexedHeap
	treeArcs [][]int32 // arc indices selected by each worker
	parts    []partition
	findAll  bool // fixup's zero-progress fallback: every vertex selects

	trees, collisions, steals, stealAttempts, visitedCount, arcScans atomic.Int64

	growBody, unionBody, findBody, relabelBody, composeBody, countBody, fillBody func(int)
	fixupBody                                                                    func(worker, lo, hi int)
}

// newRun builds the run state and performs the setup compaction, which
// merges input parallel edges and computes the vertex segment starts.
func newRun(g *graph.EdgeList, opt Options) *run {
	p := opt.Workers
	if p <= 0 {
		p = par.DefaultWorkers()
	}
	nb := opt.BaseSize
	if nb <= 0 {
		nb = DefaultBaseSize
	}
	r := &run{p: p, nb: nb, opt: opt, c: opt.Trace, input: g.Edges, n: g.N, ws: boruvka.NewWorkspace(p, g.N)}
	r.team = r.ws.Team()
	r.parent, r.sel = r.ws.Selections()
	r.root = r.c.Start(algoName, algoName)
	r.root.SetInt("workers", int64(p))
	r.comp = sorts.NewCompactor(p, r.team, g.N)
	r.rng = rng.New(opt.Seed + 0x5eed)
	r.growBody = r.growWork
	r.unionBody = r.unionWork
	r.findBody = r.findWork
	r.relabelBody = r.relabelWork
	r.composeBody = r.composeWork
	r.countBody = r.countWork
	r.fillBody = r.fillWork
	r.fixupBody = r.fixupWork
	r.counts = make([]int64, p*par.PadWords)

	m := 2 * len(g.Edges)
	r.edges = make([]graph.WEdge, m)
	r.spare = make([]graph.WEdge, m)
	r.starts = make([]int64, g.N+1)
	setup := r.root.Child("setup")
	r.c.Labeled(algoName, "setup", func() {
		s := setup.Child("sort")
		s.SetInt("elements", int64(m))
		r.edges, r.spare = r.comp.CompactEdges(g.Edges, r.edges, r.spare, r.n, r.starts[:r.n+1])
		r.setKernelArgs(s)
		s.End()
	})
	setup.End()

	if len(r.edges) > 0 && r.n > nb {
		r.allocLevels(g.N)
	}
	return r
}

// allocLevels sizes the per-level scratch for the level-0 problem of n
// supervertices.
func (r *run) allocLevels(n int) {
	p := r.p
	r.order = make([]int32, n)
	r.color = make([]int64, n)
	r.visited = make([]int32, n)
	r.rep = make([]int32, n)
	r.u = uf.NewConcurrent(n)
	r.heaps = make([]*heap.IndexedHeap, p)
	r.treeArcs = make([][]int32, p)
	for w := range r.heaps {
		r.heaps[w] = heap.New(n)
	}
	r.parts = make([]partition, p)
}

// close shuts the worker team down.
func (r *run) close() { r.ws.Close() }

// compact runs the two-level compaction of the working list over n
// supervertices, recorded as a "sort" child of sp.
func (r *run) compact(sp obs.Span, n int) {
	s := sp.Child("sort")
	s.SetInt("elements", int64(len(r.edges)))
	r.edges, r.spare = r.comp.Compact(r.edges, r.spare, n, r.starts[:n+1])
	r.setKernelArgs(s)
	s.End()
}

// setKernelArgs records the compactor's view of its last call on the
// sort span s.
func (r *run) setKernelArgs(s obs.Span) {
	s.SetInt("radix_passes", int64(r.comp.Passes))
	s.SetInt("max_segment", int64(r.comp.MaxSegment))
}

// level executes one round of Alg. 1 (steps 1-5): the concurrent Prim
// growth, the Borůvka fix-up for unvisited vertices, and the contraction.
// It reports whether the level hands off to the finish.
func (r *run) level() (handoff bool) {
	lv := r.root.Child("level")
	lv.SetInt("n", int64(r.n))
	lv.SetInt("m", int64(len(r.edges)/2))

	grow := lv.Child("grow")
	r.c.Labeled(algoName, "grow", r.grow)
	grow.SetInt("arc_scans", r.arcScans.Load())
	grow.End()
	lv.SetInt("trees", r.trees.Load())
	lv.SetInt("collisions", r.collisions.Load())
	lv.SetInt("steals", r.steals.Load())
	lv.SetInt("visited", r.visitedCount.Load())
	obs.StealAttempts.Add(r.stealAttempts.Load())
	obs.StealSuccesses.Add(r.steals.Load())

	fixup := lv.Child("fixup")
	r.c.Labeled(algoName, "fixup", r.fixup)
	fixup.End()

	contract := lv.Child("contract")
	r.c.Labeled(algoName, "contract", func() { handoff = r.contract(contract) })
	contract.End()
	lv.End()
	return handoff
}

// grow resets the level's claim state and runs the concurrent Prim
// growth (Alg. 1 steps 1-2, Alg. 2) on the team.
func (r *run) grow() {
	n := r.n
	// Claim order: random permutation unless disabled.
	order := r.order[:n]
	for i := range order {
		order[i] = int32(i)
	}
	if !r.opt.NoPermute {
		r.rng.Shuffle32(order)
	}
	clear(r.color[:n])
	clear(r.visited[:n])
	for w := range r.parts {
		lo, hi := par.Block(n, r.p, w)
		r.parts[w].init(lo, hi)
	}
	r.trees.Store(0)
	r.collisions.Store(0)
	r.steals.Store(0)
	r.stealAttempts.Store(0)
	r.visitedCount.Store(0)
	r.arcScans.Store(0)
	r.team.Run(r.growBody)
}

func (r *run) growWork(w int) {
	p, n := r.p, r.n
	edges, starts, order := r.edges, r.starts, r.order
	color := r.color     // accessed atomically
	visited := r.visited // accessed atomically
	h := r.heaps[w]
	arcs := r.treeArcs[w][:0]
	var myTrees, myColl, mySteals, myAttempts, myVisited, myScans int64
	claim := func(pi int) {
		for {
			var idx int
			var ok bool
			if pi == w {
				idx, ok = r.parts[pi].takeFront()
			} else {
				myAttempts++
				idx, ok = r.parts[pi].takeBack()
			}
			if !ok {
				return
			}
			v := order[idx]
			if !atomic.CompareAndSwapInt64(&color[v], 0, myColors(w, p, myTrees)) {
				continue // already claimed by someone (possibly us)
			}
			myTrees++
			grown, scans, coll := growTree(v, myColors(w, p, myTrees-1), h, color, visited, edges, starts, &arcs)
			myVisited += grown
			myScans += scans
			if coll {
				myColl++
			}
		}
	}
	claim(w)
	// Work stealing: help unfinished partitions from the back, with the
	// victim order randomized per worker (the paper: "an unfinished
	// partition is randomly selected").
	victims := make([]int, 0, p-1)
	for v := 0; v < p; v++ {
		if v != w {
			victims = append(victims, v)
		}
	}
	vr := rng.New(r.opt.Seed ^ (uint64(w)+1)*0x9e3779b97f4a7c15 ^ uint64(n))
	for i := len(victims) - 1; i > 0; i-- {
		j := vr.Intn(i + 1)
		victims[i], victims[j] = victims[j], victims[i]
	}
	for _, victim := range victims {
		before := myTrees
		claim(victim)
		mySteals += myTrees - before
	}
	r.treeArcs[w] = arcs
	r.trees.Add(myTrees)
	r.collisions.Add(myColl)
	r.steals.Add(mySteals)
	r.stealAttempts.Add(myAttempts)
	r.visitedCount.Add(myVisited)
	r.arcScans.Add(myScans)
}

// fixup is step 3 of Alg. 1: every vertex not incorporated into a
// mature tree selects its lightest incident edge (a Borůvka step), and
// the selections (mutual pairs once) and the tree edges are harvested
// into the forest.
func (r *run) fixup() {
	n := r.n
	r.team.ForDynamic(n, 1024, r.fixupBody)
	before := len(r.ws.ForestIDs())
	r.ws.Harvest(n)
	treeEdges := 0
	for _, arcs := range r.treeArcs {
		treeEdges += len(arcs)
	}
	if len(r.ws.ForestIDs()) == before && treeEdges == 0 {
		// Pathological synchronization (the paper's n/p-cycle example):
		// no progress was made. Fall back to a full Borůvka find-min over
		// every vertex, which always selects at least one edge when edges
		// remain.
		r.findAll = true
		r.team.ForDynamic(n, 1024, r.fixupBody)
		r.findAll = false
		r.ws.Harvest(n)
	}
	for _, arcs := range r.treeArcs {
		for _, arc := range arcs {
			r.ws.AppendForest(r.edges[arc].ID)
		}
	}
}

//msf:noalloc
func (r *run) fixupWork(_, lo, hi int) {
	edges, starts, parent, sel := r.edges, r.starts, r.parent, r.sel
	visited := r.visited // accessed atomically
	all := r.findAll
	for v := lo; v < hi; v++ {
		if !all && atomic.LoadInt32(&visited[v]) != 0 {
			parent[v] = int32(v)
			continue
		}
		to, arc := lightest(int32(v), edges, starts)
		parent[v] = to
		if arc >= 0 {
			sel[v] = edges[arc].ID
		}
	}
}

// contract is steps 4-5 of Alg. 1: union every selected edge in a
// lock-free union-find, relabel the components densely, and rebuild the
// working graph with the two-level compaction. The relabel and the
// compaction are skipped when no input edge joins two of the k new
// supervertices, and when the level hands off: when k is within n_b,
// or when the live input edges number at least denseFactor·k.
func (r *run) contract(sp obs.Span) (handoff bool) {
	var k int
	r.labels, k = r.denseLabels()
	r.composeMap()
	live := r.countLive()
	obs.Supervertices.Set(int64(k))
	r.n = k
	if live == 0 || k <= r.nb || live >= denseFactor*k {
		// The working list is dead from here: the finish reads the input.
		obs.EdgesRetired.Add(int64(len(r.edges)))
		r.edges, r.spare = nil, nil
		return live > 0
	}
	r.team.Run(r.relabelBody)
	before := int64(len(r.edges))
	r.compact(sp, k)
	obs.EdgesRetired.Add(before - int64(len(r.edges)))
	return false
}

// denseLabels merges the level's tree edges and selected edges in the
// union-find and returns dense component labels in [0, k), numbering
// the roots in vertex order. The labels alias the resolver's buffer.
func (r *run) denseLabels() ([]int32, int) {
	r.u.Reset(r.n)
	r.team.Run(r.unionBody)
	r.team.Run(r.findBody)
	// rep is a pointer forest of depth one, so the resolver only
	// numbers its roots.
	return r.ws.Resolver().Resolve(r.rep[:r.n])
}

//msf:noalloc
func (r *run) unionWork(w int) {
	u, edges, parent := r.u, r.edges, r.parent
	for _, arc := range r.treeArcs[w] {
		u.Union(edges[arc].U, edges[arc].V)
	}
	// A selected edge runs from v to parent[v]; a mutual pair's second
	// union finds the two already merged.
	lo, hi := par.Block(r.n, r.p, w)
	for v := lo; v < hi; v++ {
		if pv := parent[v]; int(pv) != v {
			u.Union(int32(v), pv)
		}
	}
}

//msf:noalloc
func (r *run) findWork(w int) {
	lo, hi := par.Block(r.n, r.p, w)
	for v := lo; v < hi; v++ {
		r.rep[v] = r.u.Find(int32(v))
	}
}

// composeMap advances the input vertices' map through the level's
// labels.
func (r *run) composeMap() {
	if r.vmap == nil {
		r.vmap = make([]int32, len(r.labels))
		copy(r.vmap, r.labels)
		return
	}
	r.team.Run(r.composeBody)
}

//msf:noalloc
func (r *run) composeWork(w int) {
	lo, hi := par.Block(len(r.vmap), r.p, w)
	vmap, labels := r.vmap, r.labels
	for v := lo; v < hi; v++ {
		vmap[v] = labels[vmap[v]]
	}
}

// countLive counts the live input edges, those whose endpoints the
// vertex map takes to two different vertices, per worker block into
// counts, and returns the total. Parallel edges count apiece: the
// finish filters them. The input, read in order, is smaller than the
// directed working list of level 0.
func (r *run) countLive() int {
	r.team.Run(r.countBody)
	total := 0
	for w := 0; w < r.p; w++ {
		total += int(r.counts[w*par.PadWords])
	}
	return total
}

// countWork counts the live input edges of worker w's block. The nil
// test of the vertex map is the same for every edge, and the count is a
// conditional select.
//
//msf:noalloc
func (r *run) countWork(w int) {
	lo, hi := par.Block(len(r.input), r.p, w)
	input, vmap := r.input, r.vmap
	var c int64
	for i := lo; i < hi; i++ {
		u, v := input[i].U, input[i].V
		if vmap != nil {
			u, v = vmap[u], vmap[v]
		}
		c += one(u != v)
	}
	r.counts[w*par.PadWords] = c
}

// one is 1 for true and 0 for false.
func one(b bool) int64 {
	var x int64
	if b {
		x = 1
	}
	return x
}

// fillWork writes the ids of worker w's live input edges from its
// offset in counts.
//
//msf:noalloc
func (r *run) fillWork(w int) {
	lo, hi := par.Block(len(r.input), r.p, w)
	input, vmap, ids := r.input, r.vmap, r.ids
	pos := r.counts[w*par.PadWords]
	for i := lo; i < hi; i++ {
		u, v := input[i].U, input[i].V
		if vmap != nil {
			u, v = vmap[u], vmap[v]
		}
		if u != v {
			ids[pos] = int32(i)
			pos++
		}
	}
}

// finish solves the live input edges counted last with Bor-CAS's
// Filter-Kruskal on the run's team. The edges stay in the input, named
// by an id list in input order, and the vertex map takes their
// endpoints to the finish's r.n vertices. The forest edges join the
// run's, and the finish's component count becomes r.n.
func (r *run) finish() {
	live := int64(0)
	for w := 0; w < r.p; w++ {
		c := r.counts[w*par.PadWords]
		r.counts[w*par.PadWords] = live
		live += c
	}
	sp := r.root.Child("finish")
	sp.SetInt("n", int64(r.n))
	sp.SetInt("m", live)
	sp.SetInt("dense", one(live >= denseFactor*int64(r.n)))
	r.c.Labeled(algoName, "finish", func() {
		r.ids = make([]int32, live)
		r.team.Run(r.fillBody)
		f := cashook.Finish(r.team, r.input, r.ids, r.vmap, r.n, r.opt.Seed, sp)
		for _, id := range f.EdgeIDs {
			r.ws.AppendForest(id)
		}
		r.n = f.Components
	})
	sp.End()
}

//msf:noalloc
func (r *run) relabelWork(w int) {
	lo, hi := par.Block(len(r.edges), r.p, w)
	edges, labels := r.edges, r.labels
	for i := lo; i < hi; i++ {
		edges[i].U = labels[edges[i].U]
		edges[i].V = labels[edges[i].V]
	}
}

// myColors returns the unique color for worker w's t-th tree (Alg. 2 step
// 1.2: color = treeCount*p + workerID, offset to keep 0 = uncolored).
func myColors(w, p int, t int64) int64 {
	return t*int64(p) + int64(w) + 1
}

// growTree runs the Prim growth loop of Alg. 2 from root v with color my.
// It returns the number of vertices incorporated, the number of arcs
// scanned, and whether growth ended in a collision with a foreign color.
//
// Only the tree that colored a vertex scans its arcs, and it scans them
// at most twice (the maturity check, then the insertions): a visited
// vertex is never pushed again, and a popped one is tested for visited
// before its maturity scan. So a level scans at most twice the working
// list's arcs, whatever the degrees.
//
//msf:atomic color visited
func growTree(
	v int32, my int64, h *heap.IndexedHeap,
	color []int64, visited []int32,
	edges []graph.WEdge, starts []int64,
	out *[]int32,
) (grown, scans int64, collided bool) {
	h.Reset()
	h.Push(v, math.Inf(-1), -1)
	for h.Len() > 0 {
		w, _, arc := h.PopMin()
		if atomic.LoadInt64(&color[w]) != my {
			collided = true
			break
		}
		if atomic.LoadInt32(&visited[w]) != 0 {
			continue
		}
		// Maturity check: a foreign-colored neighbor means this tree
		// touches another processor's tree.
		foreign := false
		for i := starts[w]; i < starts[w+1]; i++ {
			scans++
			c := atomic.LoadInt64(&color[edges[i].V])
			if c != 0 && c != my {
				foreign = true
				break
			}
		}
		if foreign {
			collided = true
			break
		}
		atomic.StoreInt32(&visited[w], 1)
		grown++
		if arc >= 0 {
			*out = append(*out, arc)
		}
		scans += starts[w+1] - starts[w]
		for i := starts[w]; i < starts[w+1]; i++ {
			uu := edges[i].V
			// Claim free neighbors; but insert into the heap REGARDLESS
			// of color, exactly as Alg. 2 does, except for the vertices
			// this tree already holds. A foreign vertex that surfaces at
			// the top of the heap triggers the collision break above,
			// which is what preserves Prim's cut invariant: the popped
			// key is always the minimum edge crossing the tree cut, and
			// the tree stops rather than skip past a lost lighter
			// crossing edge. An arc into the tree crosses no cut.
			c := atomic.LoadInt64(&color[uu])
			if c == 0 {
				atomic.CompareAndSwapInt64(&color[uu], 0, my)
			} else if c == my && atomic.LoadInt32(&visited[uu]) != 0 {
				continue
			}
			if h.Contains(uu) {
				h.DecreaseKey(uu, edges[i].W, int32(i))
			} else {
				h.Push(uu, edges[i].W, int32(i))
			}
		}
	}
	h.Reset()
	return grown, scans, collided
}

// lightest returns the other endpoint and arc index of v's minimum-weight
// incident edge, or (v, -1) when v has none.
func lightest(v int32, edges []graph.WEdge, starts []int64) (int32, int32) {
	lo, hi := starts[v], starts[v+1]
	if lo == hi {
		return v, -1
	}
	best := lo
	for i := lo + 1; i < hi; i++ {
		if edges[i].W < edges[best].W ||
			(edges[i].W == edges[best].W && edges[i].ID < edges[best].ID) {
			best = i
		}
	}
	return edges[best].V, int32(best)
}

func finishForest(g *graph.EdgeList, ids []int32, components int) *graph.Forest {
	f := &graph.Forest{EdgeIDs: ids, Components: components}
	for _, id := range ids {
		f.Weight += g.Edges[id].W
	}
	return f
}
