package boruvka

import (
	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/par"
)

// FAL computes the minimum spanning forest with the Bor-FAL variant:
// parallel Borůvka over the flexible adjacency list. The underlying arc
// arrays are never moved: compact-graph shrinks to a small parallel group
// sort plus O(1) pointer appends per merged vertex and an O(n/p)-per-
// worker lookup-table update, while find-min takes over the filtering of
// self-loops and multi-edges through the lookup table. This trades a
// (slightly) costlier find-min for a dramatically cheaper compact-graph —
// the paper's key observation for sparse random graphs. The loop runs on
// a persistent worker team out of reused buffers, so the steady-state
// round performs zero heap allocations.
func FAL(g *graph.EdgeList, opt Options) *graph.Forest {
	r := newFALRun(g, opt)
	for r.round() {
	}
	r.root.End()
	f := finish(g, r.ws.ForestIDs(), r.f.N)
	r.ws.Close()
	return f
}

// falRun is the team-based Bor-FAL loop state: the head/tail ping-pong
// arrays, the grouping buffers and the per-worker counters are all sized
// once for the original vertex count and reused every round.
type falRun struct {
	name string
	p    int
	c    *obs.Collector
	root obs.Span
	ws   *Workspace
	f    *graph.FlexAdj

	order     []int32
	gstarts   []int64
	chainArcs []int64 // per-worker visited-arc counts
	selCounts []int64 // per-worker selected-vertex counts

	headSpare, tailSpare []int32
	newHead, newTail     []int32
	labels               []int32
	k                    int
	selected             int64
	listSize             int64

	findMinBody func(worker, lo, hi int)
	appendBody  func(worker, lo, hi int)
	lookupBody  func(int)
	findMinFn   func()
	connectFn   func()
	compactFn   func()
}

func newFALRun(g *graph.EdgeList, opt Options) *falRun {
	p := opt.workers()
	c, root := obsStart(opt, "Bor-FAL", p)
	r := &falRun{name: "Bor-FAL", p: p, c: c, root: root}
	r.ws = NewWorkspace(p, g.N)
	r.findMinBody = r.findMinWork
	r.appendBody = r.appendWork
	r.lookupBody = r.lookupWork
	r.findMinFn = r.findMinPhase
	r.connectFn = r.connectPhase
	r.compactFn = r.compactPhase

	base := graph.BuildAdj(g)
	r.f = graph.NewFlexAdj(base)
	r.order = make([]int32, g.N)
	r.gstarts = make([]int64, g.N+1)
	r.chainArcs = make([]int64, p)
	r.selCounts = make([]int64, p)
	r.headSpare = make([]int32, g.N)
	r.tailSpare = make([]int32, g.N)
	return r
}

//msf:noalloc
func (r *falRun) round() bool {
	it := r.root.Child("iteration")
	it.SetInt("n", int64(r.f.N))

	// Step 1: find-min with on-the-fly filtering. Every arc in every
	// chain is visited; arcs whose endpoints now share a supervertex are
	// skipped via the lookup table.
	step := it.Child("find-min")
	labeled(r.c, r.name, "find-min", r.findMinFn)
	it.SetInt("list_size", r.listSize)
	step.End()
	if r.selected == 0 {
		// All remaining arcs are intra-supervertex: the forest is done.
		it.End()
		return false
	}

	// Step 2: connect-components.
	step = it.Child("connect-components")
	labeled(r.c, r.name, "connect-components", r.connectFn)
	step.End()

	// Step 3: compact-graph — group supervertices by new label (the
	// "smaller parallel sort"), append member chains with pointer
	// operations, and update the original-vertex lookup table.
	step = it.Child("compact-graph")
	labeled(r.c, r.name, "compact-graph", r.compactFn)
	step.End()
	obs.Supervertices.Set(int64(r.f.N))

	it.End()
	return true
}

//msf:noalloc
func (r *falRun) findMinPhase() {
	for w := 0; w < r.p; w++ {
		r.chainArcs[w] = 0
		r.selCounts[w] = 0
	}
	// Dynamic scheduling: chain lengths grow skewed as supervertices
	// merge, so static vertex ranges would leave workers idle behind the
	// owner of the giant chains.
	r.ws.team.ForDynamic(r.f.N, 256, r.findMinBody)
	r.listSize, r.selected = 0, 0
	for w := 0; w < r.p; w++ {
		r.listSize += r.chainArcs[w]
		r.selected += r.selCounts[w]
	}
	if r.selected > 0 {
		r.ws.Harvest(r.f.N)
	}
}

// findMinWork walks each supervertex's block chain directly (the
// callback-free form of FlexAdj.Chain) so the hot loop stays free of
// per-vertex closures.
//
//msf:noalloc
func (r *falRun) findMinWork(w, lo, hi int) {
	f := r.f
	arcs := f.Base.Arcs
	parent, sel := r.ws.parent, r.ws.sel
	var visited, selCnt int64
	for s := lo; s < hi; s++ {
		bestW := 0.0
		bestID := int32(-1)
		bestTo := int32(s)
		for b := f.Head[s]; b >= 0; b = f.Blocks[b].Next {
			blk := f.Blocks[b]
			for i := blk.Lo; i < blk.Hi; i++ {
				e := arcs[i]
				visited++
				t := f.Lookup[e.To]
				if int(t) == s {
					continue // self-loop inside the supervertex
				}
				if bestID < 0 || e.W < bestW || (e.W == bestW && e.EID < bestID) {
					bestW, bestID, bestTo = e.W, e.EID, t
				}
			}
		}
		if bestID < 0 {
			parent[s] = int32(s)
		} else {
			parent[s] = bestTo
			sel[s] = bestID
			selCnt++
		}
	}
	r.chainArcs[w] += visited
	r.selCounts[w] += selCnt
}

//msf:noalloc
func (r *falRun) connectPhase() {
	r.labels, r.k = r.ws.res.Resolve(r.ws.parent[:r.f.N])
}

//msf:noalloc
func (r *falRun) compactPhase() {
	k := r.k
	r.ws.grp.Group(r.labels, k, r.order[:r.f.N], r.gstarts[:k+1])
	r.newHead = r.headSpare[:k]
	r.newTail = r.tailSpare[:k]
	r.ws.team.ForDynamic(k, 256, r.appendBody)
	// O(n_original / p) lookup-table update.
	r.ws.team.Run(r.lookupBody)
	oldHead := r.f.Head[:cap(r.f.Head)]
	oldTail := r.f.Tail[:cap(r.f.Tail)]
	r.f.Head, r.f.Tail, r.f.N = r.newHead, r.newTail, k
	r.headSpare, r.tailSpare = oldHead, oldTail
	r.newHead, r.newTail = nil, nil
}

//msf:noalloc
func (r *falRun) appendWork(_, lo, hi int) {
	f := r.f
	for gidx := lo; gidx < hi; gidx++ {
		members := r.order[r.gstarts[gidx]:r.gstarts[gidx+1]]
		head, tail := int32(-1), int32(-1)
		for _, s := range members {
			if f.Head[s] < 0 {
				continue
			}
			if head < 0 {
				head, tail = f.Head[s], f.Tail[s]
			} else {
				f.Blocks[tail].Next = f.Head[s]
				tail = f.Tail[s]
			}
		}
		r.newHead[gidx] = head
		r.newTail[gidx] = tail
	}
}

//msf:noalloc
func (r *falRun) lookupWork(w int) {
	f := r.f
	lo, hi := par.Block(len(f.Lookup), r.p, w)
	labels := r.labels
	for v := lo; v < hi; v++ {
		f.Lookup[v] = labels[f.Lookup[v]]
	}
}
