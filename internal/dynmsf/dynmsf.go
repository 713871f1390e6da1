// Package dynmsf maintains the minimum spanning forest of a graph under
// batches of edge insertions and deletions, without recomputing from
// scratch on every change.
//
// The handle keeps three structures in sync:
//
//   - an append-only edge store with tombstones (the live graph),
//   - the forest itself, as an adjacency list over tree edges, and
//   - an incrementally maintained pathmax.Index: the binary-lifting
//     path-maximum structure promoted from a one-shot verification
//     oracle to a runtime structure with per-tree dirty tracking and
//     region rebuilds.
//
// Insertions use the cycle rule: a new edge (u,v,w) joins the forest
// iff it beats the maximum-weight edge on the current tree path between
// u and v under the library's perturbed total order (W, id); the beaten
// edge drops back into the non-tree pool. Deletions of tree edges run a
// replacement-edge search: the affected trees are re-fragmented with a
// BFS, candidate non-tree edges are gathered from the smaller fragments'
// incidence pools, sorted by (W, id), and a scoped Kruskal over the
// fragment graph promotes the lightest reconnectors.
//
// When a batch invalidates more than Options.CutoffFrac of a tree
// (counted upfront per tree), or keeps forcing index rebuilds through
// repeated swaps, the handle gives up on per-edge maintenance for that
// tree and recomputes it with one scoped sequential Kruskal over the
// tree's current edges plus the buffered insertions — correct because
// under the cycle property every old non-tree edge stays beaten by the
// tree path it closes.
package dynmsf

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/pathmax"
	"pmsf/internal/seq"
)

// Options configures a dynamic-MSF handle.
type Options struct {
	// CutoffFrac is the fraction of a tree's vertex count that a single
	// batch's intra-tree insertions may reach before the tree is handed
	// to the scoped-recompute fallback instead of per-edge cycle-rule
	// maintenance. 0 means 0.25.
	CutoffFrac float64
	// RebuildLimit bounds how many times one batch may rebuild a single
	// tree's path-max rows because of insertion swaps; past it the tree
	// falls back to the scoped recompute. Each rebuild is O(tree), so on
	// swap-heavy streams a low limit trades per-swap index maintenance
	// for one batched Kruskal over the tree. 0 means 1.
	RebuildLimit int
	// Trace, when non-nil, receives one span per ApplyEdges batch with
	// children for the delete/repair/insert/fallback phases.
	Trace *obs.Collector
}

const (
	defaultCutoffFrac   = 0.25
	defaultRebuildLimit = 1

	// walksPerRebuild scales the rebuild-on-threshold rule for dirty
	// trees: once the batch-local QueryWalk count times this factor
	// reaches the tree size, one O(tree) rebuild pays for itself
	// against the O(depth) walks it replaces.
	walksPerRebuild = 32

	// compactMinDead is the tombstone count below which the store is
	// never compacted, so small graphs don't churn.
	compactMinDead = 4096
)

// ErrBroken is wrapped by every error returned after an internal
// invariant failure has left the handle unusable.
var ErrBroken = errors.New("dynmsf: handle is broken by an earlier internal error")

// Delta reports what one ApplyEdges batch did to the forest.
type Delta struct {
	Added   int // edge insertions applied
	Deleted int // edge deletions applied

	Links        int // insertions that joined two trees
	Swaps        int // insertions that displaced a heavier tree edge (cycle rule)
	Replacements int // non-tree edges promoted by the deletion repair
	Splits       int // net new components left by deletions after repair

	Rebuilds           int // incremental path-max region rebuilds
	FallbackRecomputes int // trees recomputed with the scoped Kruskal

	Weight     float64 // forest weight after the batch
	ForestSize int     // forest edges after the batch
	Components int     // components (incl. isolated vertices) after the batch
}

// Handle is a dynamic minimum-spanning-forest maintainer. All methods
// are safe for concurrent use: ApplyEdges takes the write lock, the one
// read (SnapshotWithForest) takes the read lock and therefore blocks —
// rather than races — while a batch is being applied, so the graph and
// forest it returns always belong to the same committed batch.
type Handle struct {
	mu  sync.RWMutex
	opt Options

	// broken, once set, poisons the handle: an internal invariant broke
	// mid-batch and the structures may be inconsistent.
	broken error

	live       *graph.EdgeList // the store: N plus every edge ever added
	alive      []bool          // tombstones; false = deleted
	inForest   []bool
	dead       int
	weight     float64
	forestSize int
	trees      int

	// fadj is the forest adjacency (tree edges only); nadj the non-tree
	// incidence pools, with lazy deletion: entries are validated on scan
	// (alive and not currently in the forest) and compacted when their
	// vertex is swept by a repair.
	fadj [][]pathmax.Arc
	nadj [][]pathmax.Arc

	idx       *pathmax.Index
	treeVerts map[int32][]int32 // tree root -> member vertices, root first
	// dirty marks trees whose level-0 path-max rows (parent + parent
	// edge) are exact but whose depth and lifted rows are stale:
	// queries must go through QueryWalk until the next rebuild.
	dirty map[int32]bool

	// Scratch for repairs and scoped recomputes, epoch-stamped so
	// clearing is O(1).
	frag      []int32
	fragStamp []int32
	fragEpoch int32
	seenEdge  []int32
	seenEpoch int32
}

// New builds a handle for g, seeded with an already computed minimum
// spanning forest of g (ids into g.Edges). The edge list is copied; the
// caller's graph is never mutated. Returns an error if g is invalid or
// initial is not a forest of g.
func New(g *graph.EdgeList, initial *graph.Forest, opt Options) (*Handle, error) {
	if g == nil || initial == nil {
		return nil, errors.New("dynmsf: nil graph or forest")
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("dynmsf: %w", err)
	}
	if opt.CutoffFrac <= 0 || opt.CutoffFrac > 1 {
		opt.CutoffFrac = defaultCutoffFrac
	}
	if opt.RebuildLimit <= 0 {
		opt.RebuildLimit = defaultRebuildLimit
	}
	h := &Handle{opt: opt}
	edges := make([]graph.Edge, len(g.Edges))
	copy(edges, g.Edges)
	ids := make([]int32, len(initial.EdgeIDs))
	copy(ids, initial.EdgeIDs)
	if err := h.init(g.N, edges, ids); err != nil {
		return nil, err
	}
	return h, nil
}

// init (re)builds every derived structure from a live-only edge store.
// Used by New and by compaction.
func (h *Handle) init(n int, edges []graph.Edge, forestIDs []int32) error {
	live := &graph.EdgeList{N: n, Edges: edges}
	idx, err := pathmax.Build(live, forestIDs)
	if err != nil {
		return fmt.Errorf("dynmsf: %w", err)
	}
	h.live = live
	h.idx = idx
	m := len(edges)
	h.alive = make([]bool, m)
	for i := range h.alive {
		h.alive[i] = true
	}
	h.inForest = make([]bool, m)
	h.dead = 0
	h.fadj = make([][]pathmax.Arc, n)
	h.nadj = make([][]pathmax.Arc, n)
	h.weight = 0
	h.forestSize = len(forestIDs)
	for _, id := range forestIDs {
		e := edges[id]
		h.inForest[id] = true
		h.fadj[e.U] = append(h.fadj[e.U], pathmax.Arc{To: e.V, EID: id})
		h.fadj[e.V] = append(h.fadj[e.V], pathmax.Arc{To: e.U, EID: id})
		h.weight += e.W
	}
	for id, e := range edges {
		if h.inForest[id] {
			continue
		}
		h.nadj[e.U] = append(h.nadj[e.U], pathmax.Arc{To: e.V, EID: int32(id)})
		if e.U != e.V {
			h.nadj[e.V] = append(h.nadj[e.V], pathmax.Arc{To: e.U, EID: int32(id)})
		}
	}
	// Vertices are scanned in ascending order and every tree's root is
	// its smallest member, so each tree's root lands first in its list —
	// the invariant region rebuilds rely on.
	h.treeVerts = make(map[int32][]int32)
	for v := 0; v < n; v++ {
		root := idx.Comp(int32(v))
		h.treeVerts[root] = append(h.treeVerts[root], int32(v))
	}
	h.trees = len(h.treeVerts)
	h.dirty = make(map[int32]bool)
	h.frag = make([]int32, n)
	h.fragStamp = make([]int32, n)
	h.fragEpoch = 0
	h.seenEdge = make([]int32, m)
	h.seenEpoch = 0
	return nil
}

// N returns the (fixed) vertex count.
func (h *Handle) N() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.live.N
}

// ApplyEdges applies one batch: del edges are removed, add edges are
// inserted, and the maintained forest is updated to the exact minimum
// spanning forest (under the perturbed order (W, id)) of the mutated
// graph. Batches are atomic: the batch is validated upfront and on any
// validation error nothing is mutated.
//
// Deletions identify edges by value — endpoints in either orientation
// plus exact weight — against the edges live BEFORE the batch; deleting
// an edge added by the same batch is an error. When several live edges
// share the same value, each matching deletion consumes one of them.
func (h *Handle) ApplyEdges(add, del []graph.Edge) (Delta, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.broken != nil {
		return Delta{}, h.broken
	}
	n := h.live.N
	for i, e := range add {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return Delta{}, fmt.Errorf("dynmsf: add %d: vertex out of range [0,%d)", i, n)
		}
		if math.IsNaN(e.W) {
			return Delta{}, fmt.Errorf("dynmsf: add %d: NaN weight", i)
		}
	}
	delIDs, err := h.resolveDeletions(del)
	if err != nil {
		return Delta{}, err
	}
	if len(h.live.Edges)+len(add) > math.MaxInt32 {
		return Delta{}, errors.New("dynmsf: edge store would exceed int32 ids")
	}

	span := h.opt.Trace.Start("apply-batch", "dynmsf")
	span.SetInt("adds", int64(len(add))).SetInt("dels", int64(len(del)))
	defer span.End()
	metricsOn := obs.MetricsOn()
	if metricsOn {
		obs.DynAppliedEdges.Add(int64(len(add) + len(del)))
	}

	d := Delta{Added: len(add), Deleted: len(del)}

	// Phase 1: deletions. Tombstone every deleted edge; cutting a tree
	// edge marks its tree as needing repair.
	delSpan := span.Child("delete")
	affected := make(map[int32]bool)
	for _, id := range delIDs {
		e := h.live.Edges[id]
		h.alive[id] = false
		h.dead++
		if h.inForest[id] {
			h.unlinkForest(id)
			affected[h.idx.Comp(e.U)] = true
		}
	}
	delSpan.End()

	// Phase 2: replacement-edge search plus region rebuild.
	if len(affected) > 0 {
		repSpan := span.Child("repair")
		h.repair(affected, &d)
		repSpan.SetInt("replacements", int64(d.Replacements)).SetInt("splits", int64(d.Splits))
		repSpan.End()
	}

	// Phase 3: insertions, lightest first (cycle rule), with per-tree
	// fallback to the scoped recompute.
	if len(add) > 0 {
		insSpan := span.Child("insert")
		h.insertPhase(add, &d, insSpan)
		insSpan.SetInt("links", int64(d.Links)).SetInt("swaps", int64(d.Swaps))
		insSpan.End()
	}

	// Compact the store once tombstones dominate it.
	if h.dead > compactMinDead && h.dead*2 > len(h.live.Edges) {
		if err := h.compact(); err != nil {
			h.broken = fmt.Errorf("%w: %v", ErrBroken, err)
			return d, h.broken
		}
	}

	if metricsOn {
		obs.DynReplacements.Add(int64(d.Replacements))
		obs.DynRebuilds.Add(int64(d.Rebuilds))
		obs.DynFallbackRecomputes.Add(int64(d.FallbackRecomputes))
	}
	d.Weight = h.weight
	d.ForestSize = h.forestSize
	d.Components = h.trees
	return d, nil
}

// resolveDeletions maps value-identified deletions to store ids without
// mutating anything, so a bad batch can be rejected atomically. Non-tree
// matches are preferred over tree matches (deleting the copy that is not
// in the forest needs no repair).
func (h *Handle) resolveDeletions(del []graph.Edge) ([]int32, error) {
	if len(del) == 0 {
		return nil, nil
	}
	n := h.live.N
	taken := make(map[int32]bool, len(del))
	ids := make([]int32, 0, len(del))
	for i, e := range del {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("dynmsf: delete %d: vertex out of range [0,%d)", i, n)
		}
		id, ok := h.findLiveEdge(e, taken)
		if !ok {
			return nil, fmt.Errorf("dynmsf: delete %d: no live edge (%d,%d,w=%v); deletions must name edges live before the batch", i, e.U, e.V, e.W)
		}
		taken[id] = true
		ids = append(ids, id)
	}
	return ids, nil
}

// findLiveEdge scans u's incidence (non-tree pool first, then the
// forest adjacency) for a live, not-yet-taken edge matching e by value.
func (h *Handle) findLiveEdge(e graph.Edge, taken map[int32]bool) (int32, bool) {
	for _, a := range h.nadj[e.U] {
		if a.To == e.V && !taken[a.EID] && h.alive[a.EID] && !h.inForest[a.EID] &&
			h.live.Edges[a.EID].W == e.W {
			return a.EID, true
		}
	}
	for _, a := range h.fadj[e.U] {
		if a.To == e.V && !taken[a.EID] && h.live.Edges[a.EID].W == e.W {
			return a.EID, true
		}
	}
	return 0, false
}

// linkForest promotes edge id into the forest.
func (h *Handle) linkForest(id int32) {
	e := h.live.Edges[id]
	h.inForest[id] = true
	h.fadj[e.U] = append(h.fadj[e.U], pathmax.Arc{To: e.V, EID: id})
	h.fadj[e.V] = append(h.fadj[e.V], pathmax.Arc{To: e.U, EID: id})
	h.weight += e.W
	h.forestSize++
}

// unlinkForest demotes edge id out of the forest. It does NOT return
// the edge to the non-tree pools — the caller does that iff the edge is
// still alive (a swap), not when it was just deleted.
func (h *Handle) unlinkForest(id int32) {
	e := h.live.Edges[id]
	h.inForest[id] = false
	h.weight -= e.W
	h.forestSize--
	h.fadj[e.U] = removeArc(h.fadj[e.U], id)
	h.fadj[e.V] = removeArc(h.fadj[e.V], id)
}

// poolAdd records a live non-tree edge in the incidence pools.
func (h *Handle) poolAdd(id int32) {
	e := h.live.Edges[id]
	h.nadj[e.U] = append(h.nadj[e.U], pathmax.Arc{To: e.V, EID: id})
	if e.U != e.V {
		h.nadj[e.V] = append(h.nadj[e.V], pathmax.Arc{To: e.U, EID: id})
	}
}

func removeArc(arcs []pathmax.Arc, id int32) []pathmax.Arc {
	for i, a := range arcs {
		if a.EID == id {
			last := len(arcs) - 1
			arcs[i] = arcs[last]
			return arcs[:last]
		}
	}
	return arcs
}

// arcs is the forest adjacency closure handed to pathmax rebuilds.
func (h *Handle) arcs(v int32) []pathmax.Arc { return h.fadj[v] }

// repair reconnects the trees that lost edges: fragment the affected
// region with a BFS over the surviving forest adjacency, gather
// candidate non-tree edges from every fragment but the largest (an edge
// crossing the largest fragment is incident to the smaller side too),
// and Kruskal them over the fragment graph in (W, id) order. Finally
// the region's path-max rows are rebuilt and the tree bookkeeping
// re-keyed to the new roots.
func (h *Handle) repair(affected map[int32]bool, d *Delta) {
	region := make([]int32, 0, 64)
	for t := range affected {
		region = append(region, h.treeVerts[t]...)
	}

	// Fragment labeling over the post-deletion forest.
	h.fragEpoch++
	ep := h.fragEpoch
	var frags [][]int32
	queue := make([]int32, 0, 64)
	for _, start := range region {
		if h.fragStamp[start] == ep {
			continue
		}
		fid := int32(len(frags))
		list := []int32{start}
		h.fragStamp[start] = ep
		h.frag[start] = fid
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, a := range h.fadj[v] {
				if h.fragStamp[a.To] != ep {
					h.fragStamp[a.To] = ep
					h.frag[a.To] = fid
					list = append(list, a.To)
					queue = append(queue, a.To)
				}
			}
		}
		frags = append(frags, list)
	}

	// Candidate gathering from every fragment except the largest, with
	// in-place compaction of the scanned pools (lazy-deleted entries are
	// dropped as a side effect).
	largest := 0
	for i, f := range frags {
		if len(f) > len(frags[largest]) {
			largest = i
		}
	}
	h.seenEpoch++
	sep := h.seenEpoch
	var cand []int32
	for fi, list := range frags {
		if fi == largest {
			continue
		}
		for _, v := range list {
			pool := h.nadj[v]
			kept := pool[:0]
			for _, a := range pool {
				if !h.alive[a.EID] || h.inForest[a.EID] {
					continue
				}
				kept = append(kept, a)
				if h.seenEdge[a.EID] != sep {
					h.seenEdge[a.EID] = sep
					cand = append(cand, a.EID)
				}
			}
			h.nadj[v] = kept
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		a, b := cand[i], cand[j]
		ea, eb := h.live.Edges[a], h.live.Edges[b]
		return ea.W < eb.W || (ea.W == eb.W && a < b)
	})

	// Kruskal over the fragment graph.
	parent := make([]int32, len(frags))
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	remaining := len(frags) - 1
	for _, id := range cand {
		if remaining == 0 {
			break
		}
		e := h.live.Edges[id]
		if e.U == e.V {
			continue
		}
		fu, fv := find(h.frag[e.U]), find(h.frag[e.V])
		if fu == fv {
			continue
		}
		parent[fu] = fv
		h.linkForest(id)
		d.Replacements++
		remaining--
	}

	// Rebuild the region's rows and re-key the per-tree bookkeeping.
	trees := h.idx.RebuildRegion(region, h.arcs)
	d.Rebuilds++
	for t := range affected {
		delete(h.treeVerts, t)
		delete(h.dirty, t)
	}
	for _, tr := range trees {
		h.treeVerts[tr.Root] = tr.Verts
		delete(h.dirty, tr.Root)
	}
	d.Splits = len(trees) - len(affected)
	h.trees += d.Splits
}

// insertPhase appends the batch's insertions to the store and works
// them into the forest in (W, id) order.
func (h *Handle) insertPhase(add []graph.Edge, d *Delta, span obs.Span) {
	start := int32(len(h.live.Edges))
	h.live.Edges = append(h.live.Edges, add...)
	for range add {
		h.alive = append(h.alive, true)
		h.inForest = append(h.inForest, false)
		h.seenEdge = append(h.seenEdge, 0)
	}
	ids := make([]int32, 0, len(add))
	for i, e := range add {
		id := start + int32(i)
		if e.U == e.V {
			h.poolAdd(id) // self-loops sit in the pool so deletion finds them
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		ea, eb := h.live.Edges[a], h.live.Edges[b]
		return ea.W < eb.W || (ea.W == eb.W && a < b)
	})

	// Upfront cutoff: trees receiving more intra-tree insertions than
	// CutoffFrac of their size go straight to the scoped recompute.
	intra := make(map[int32]int)
	for _, id := range ids {
		e := h.live.Edges[id]
		tu, tv := h.idx.Comp(e.U), h.idx.Comp(e.V)
		if tu == tv {
			intra[tu]++
		}
	}
	recompute := make(map[int32]bool)
	buffered := make(map[int32][]int32)
	for t, k := range intra {
		if float64(k) > h.opt.CutoffFrac*float64(len(h.treeVerts[t])) {
			recompute[t] = true
		}
	}
	rebuilds := make(map[int32]int)
	walked := make(map[int32]int)

	for _, id := range ids {
		e := h.live.Edges[id]
		tu, tv := h.idx.Comp(e.U), h.idx.Comp(e.V)
		if tu != tv {
			h.link(id, tu, tv, recompute, buffered, intra)
			d.Links++
			continue
		}
		if recompute[tu] {
			buffered[tu] = append(buffered[tu], id)
			continue
		}
		if h.dirty[tu] && walked[tu]*walksPerRebuild >= len(h.treeVerts[tu]) {
			// Rebuild-on-threshold: enough level-0 walks have accumulated
			// on this dirty tree that one O(tree) rebuild pays for itself.
			if rebuilds[tu] >= h.opt.RebuildLimit {
				// This batch keeps invalidating the tree; stop paying
				// rebuilds and recompute it once at the end.
				recompute[tu] = true
				buffered[tu] = append(buffered[tu], id)
				continue
			}
			h.refresh(tu)
			rebuilds[tu]++
			d.Rebuilds++
			walked[tu] = 0
		}
		var q int32
		if h.dirty[tu] {
			// The tree mutated this batch: its lifted rows are stale but
			// level 0 is exact, so walk the parent chains.
			q = h.idx.QueryWalk(e.U, e.V)
			walked[tu]++
		} else {
			q = h.idx.Query(e.U, e.V)
		}
		qe := h.live.Edges[q]
		if e.W < qe.W || (e.W == qe.W && id < q) {
			// Cycle rule: the new edge beats the path maximum; swap. The
			// level-0 rows are patched in O(path) — cut q, re-root its
			// child side at the new edge's endpoint inside it — so the
			// tree stays exactly queryable without a rebuild.
			b := h.idx.ChildEnd(q)
			x, y := e.U, e.V
			if !h.idx.InSubtree(x, b) {
				x, y = e.V, e.U
			}
			h.idx.Rehang(x, b, y, id)
			h.unlinkForest(q)
			h.poolAdd(q)
			h.linkForest(id)
			h.dirty[tu] = true
			d.Swaps++
		} else {
			h.poolAdd(id)
		}
	}

	for t := range recompute {
		fb := span.Child("fallback")
		h.scopedRecompute(t, buffered[t], d)
		fb.SetInt("tree", int64(t)).SetInt("buffered", int64(len(buffered[t])))
		fb.End()
	}
}

// link joins the trees tu and tv with edge id: the smaller tree is
// relabeled into the larger (union by size), re-rooted onto it at
// level 0 (O(loser depth)), and the batch-local bookkeeping (recompute
// membership, buffered insertions, intra counts) follows the merge.
// The lifted rows become stale, so the merged tree is dirty.
func (h *Handle) link(id, tu, tv int32, recompute map[int32]bool, buffered map[int32][]int32, intra map[int32]int) {
	wi, lo := tu, tv
	if len(h.treeVerts[lo]) > len(h.treeVerts[wi]) {
		wi, lo = lo, wi
	}
	e := h.live.Edges[id]
	x, y := e.U, e.V
	if h.idx.Comp(x) != lo {
		x, y = y, x
	}
	h.idx.Rehang(x, h.treeVerts[lo][0], y, id)
	h.linkForest(id)
	h.idx.Assign(h.treeVerts[lo], wi)
	h.treeVerts[wi] = append(h.treeVerts[wi], h.treeVerts[lo]...)
	delete(h.treeVerts, lo)
	h.dirty[wi] = true
	delete(h.dirty, lo)
	if recompute[lo] {
		recompute[wi] = true
		delete(recompute, lo)
	}
	if b := buffered[lo]; len(b) > 0 {
		buffered[wi] = append(buffered[wi], b...)
		delete(buffered, lo)
	}
	if k := intra[lo]; k > 0 {
		intra[wi] += k
		delete(intra, lo)
	}
	h.trees--
}

// refresh rebuilds the path-max rows of one dirty tree. The tree's
// membership is already exact (Assign keeps comp labels eager), and its
// root is the first entry of its vertex list, so the rebuild's BFS
// re-roots it under the same label.
func (h *Handle) refresh(t int32) {
	trees := h.idx.RebuildRegion(h.treeVerts[t], h.arcs)
	delete(h.dirty, t)
	if len(trees) == 1 && trees[0].Root == t {
		h.treeVerts[t] = trees[0].Verts
		return
	}
	// Defensive: a dirty "tree" that is no longer connected means an
	// invariant broke upstream; re-key what the rebuild found.
	delete(h.treeVerts, t)
	for _, tr := range trees {
		h.treeVerts[tr.Root] = tr.Verts
		delete(h.dirty, tr.Root)
	}
	h.trees += len(trees) - 1
}

// scopedRecompute replaces tree t's edge set with the Kruskal MSF of
// its current tree edges plus the buffered insertions. Old non-tree
// edges need not be reconsidered: each is beaten by its tree path, and
// insertions only make paths lighter.
func (h *Handle) scopedRecompute(t int32, bufferedIDs []int32, d *Delta) {
	verts := h.treeVerts[t]
	h.fragEpoch++
	ep := h.fragEpoch
	for i, v := range verts {
		h.fragStamp[v] = ep
		h.frag[v] = int32(i)
	}
	// Candidates: current tree edges (taken once, from their U side)
	// plus the buffered insertions, in ascending global id so the local
	// Kruskal's (W, id) tie-break mirrors the global order.
	gids := make([]int32, 0, len(verts)+len(bufferedIDs))
	for _, v := range verts {
		for _, a := range h.fadj[v] {
			if h.live.Edges[a.EID].U == v {
				gids = append(gids, a.EID)
			}
		}
	}
	gids = append(gids, bufferedIDs...)
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })

	local := &graph.EdgeList{N: len(verts), Edges: make([]graph.Edge, len(gids))}
	for i, gid := range gids {
		e := h.live.Edges[gid]
		local.Edges[i] = graph.Edge{U: h.frag[e.U], V: h.frag[e.V], W: e.W}
	}
	f := seq.Kruskal(local)

	h.seenEpoch++
	sep := h.seenEpoch
	for _, lid := range f.EdgeIDs {
		h.seenEdge[gids[lid]] = sep
	}
	wasBuffered := make(map[int32]bool, len(bufferedIDs))
	for _, id := range bufferedIDs {
		wasBuffered[id] = true
	}
	for _, gid := range gids {
		selected := h.seenEdge[gid] == sep
		if wasBuffered[gid] {
			if selected {
				h.linkForest(gid)
			} else {
				h.poolAdd(gid)
			}
		} else if !selected {
			h.unlinkForest(gid)
			h.poolAdd(gid)
		}
	}
	// The recompute rewired the forest without maintaining level-0 rows,
	// so the tree cannot stay merely dirty (dirty promises an exact
	// level 0): rebuild it clean right away.
	h.dirty[t] = true
	h.refresh(t)
	d.Rebuilds++
	d.FallbackRecomputes++
}

// compact rebuilds the handle over a live-only store once tombstones
// dominate. Pool order is irrelevant (pools are unsorted incidence
// lists), so a monotone id remap suffices.
func (h *Handle) compact() error {
	n := h.live.N
	liveEdges := make([]graph.Edge, 0, len(h.live.Edges)-h.dead)
	forestIDs := make([]int32, 0, h.forestSize)
	for id, e := range h.live.Edges {
		if !h.alive[id] {
			continue
		}
		nid := int32(len(liveEdges))
		liveEdges = append(liveEdges, e)
		if h.inForest[id] {
			forestIDs = append(forestIDs, nid)
		}
	}
	return h.init(n, liveEdges, forestIDs)
}

// SnapshotWithForest returns a compacted copy of the live graph and the
// maintained forest with ids into that copy — the pair external
// consumers (verification, the serve layer) want.
func (h *Handle) SnapshotWithForest() (*graph.EdgeList, *graph.Forest) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	g := &graph.EdgeList{N: h.live.N, Edges: make([]graph.Edge, 0, len(h.live.Edges)-h.dead)}
	f := &graph.Forest{EdgeIDs: make([]int32, 0, h.forestSize), Components: h.trees}
	for id, e := range h.live.Edges {
		if !h.alive[id] {
			continue
		}
		nid := int32(len(g.Edges))
		g.Edges = append(g.Edges, e)
		if h.inForest[id] {
			f.EdgeIDs = append(f.EdgeIDs, nid)
			f.Weight += e.W
		}
	}
	return g, f
}
