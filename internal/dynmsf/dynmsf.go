// Package dynmsf maintains the minimum spanning forest of a graph under
// batches of edge insertions and deletions, without recomputing from
// scratch on every change.
//
// The handle keeps three structures in sync:
//
//   - an append-only edge store with tombstones (the live graph),
//   - the forest as an adjacency list over tree edges, next to the
//     non-tree incidence pools of every vertex, and
//   - the same forest in a link-cut tree whose nodes carry the maximum
//     (W, id) edge of their splay subtree, so any tree path's heaviest
//     edge, and whether two vertices share a tree, cost O(log n).
//
// Insertions use the cycle rule under the library's perturbed total
// order (W, id): a new edge joining two trees links them; inside one
// tree it replaces the heaviest edge on the tree path between its
// endpoints iff it is lighter than that edge, which drops back into the
// non-tree pool. Each insert is one path-max query plus at most one cut
// and one link.
//
// Deleting a tree edge cuts it, then runs a BFS from both endpoints in
// lockstep over the surviving forest until one side is exhausted. Every
// edge that could reconnect the two sides has an endpoint on that
// smaller side, so the lightest live non-tree edge leaving it is the
// exact replacement. On random graphs the smaller side is usually a
// handful of vertices, so a batch costs in proportion to what it
// changes, not to n.
package dynmsf

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"pmsf/internal/graph"
	"pmsf/internal/obs"
)

// Options configures a dynamic-MSF handle.
type Options struct {
	// Trace, when non-nil, receives one span per ApplyEdges batch with
	// children for the delete/repair/insert phases.
	Trace *obs.Collector
}

const (
	// compactMinDead is the tombstone count below which the store is
	// never compacted, so small graphs don't churn.
	compactMinDead = 4096

	// deleted is the enode state of a tombstoned edge.
	deleted = -1
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

	// Rebuilds and FallbackRecomputes are always 0. They counted the
	// path-max index rebuilds and scoped recomputes of the structure the
	// link-cut tree replaced, and stay for readers of the field set.
	Rebuilds           int
	FallbackRecomputes int

	Weight     float64 // forest weight after the batch
	ForestSize int     // forest edges after the batch
	Components int     // components (incl. isolated vertices) after the batch
}

// arc is one directed half of an edge in an adjacency list.
type arc struct {
	to, eid int32
}

// forestWeight is the forest weight as a finite sum plus counts of
// infinite edges, so taking an infinite edge out never computes
// Inf - Inf.
type forestWeight struct {
	finite         float64
	posInf, negInf int
}

func (fw *forestWeight) add(w float64, sign int) {
	switch {
	case math.IsInf(w, 1):
		fw.posInf += sign
	case math.IsInf(w, -1):
		fw.negInf += sign
	default:
		fw.finite += float64(sign) * w
	}
}

// value is the sum of the forest's weights, as summing them directly
// would give it.
func (fw forestWeight) value() float64 {
	switch {
	case fw.posInf > 0 && fw.negInf > 0:
		return math.NaN()
	case fw.posInf > 0:
		return math.Inf(1)
	case fw.negInf > 0:
		return math.Inf(-1)
	}
	return fw.finite
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

	live *graph.EdgeList // the store: N plus every edge ever added
	// enode is the state of each stored edge: its link-cut node while it
	// is in the forest, 0 while it is a live non-tree edge, deleted once
	// it is a tombstone.
	enode      []int32
	dead       int
	weight     forestWeight
	forestSize int
	trees      int

	// fadj is the forest adjacency (tree edges only); nadj the non-tree
	// incidence pools, with lazy deletion: entries are validated on scan
	// (still a live non-tree edge) and compacted when a repair scans
	// their vertex. Each structure's per-vertex slices share one backing
	// array, cut by init at each vertex's degree; a vertex that outgrows
	// its region moves out alone, by append, and its neighbours' regions
	// are never touched.
	fadj [][]arc
	nadj [][]arc
	lt   *lct

	// Lockstep-BFS scratch: mark[v] is the tag of the side that reached
	// v; each cut takes two fresh tags, so clearing is O(1).
	mark   []int32
	tag    int32
	qa, qb []int32
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
	h := &Handle{opt: opt}
	edges := make([]graph.Edge, len(g.Edges))
	copy(edges, g.Edges)
	if err := h.init(g.N, edges, initial.EdgeIDs); err != nil {
		return nil, err
	}
	return h, nil
}

// init (re)builds every derived structure from a live-only edge store.
// Used by New and by compaction. The link-cut tree is built in O(n)
// from BFS parent pointers rather than by n-1 links. Each adjacency
// structure counts its degrees first and is then cut from one backing
// array (carve), so building it makes no per-arc allocation.
func (h *Handle) init(n int, edges []graph.Edge, forestIDs []int32) error {
	m := len(edges)
	enode := make([]int32, m)
	deg := make([]int32, n)
	for _, id := range forestIDs {
		if id < 0 || int(id) >= m {
			return fmt.Errorf("dynmsf: forest edge id %d out of range [0,%d)", id, m)
		}
		e := edges[id]
		if e.U == e.V {
			return fmt.Errorf("dynmsf: forest edge %d is a self-loop at vertex %d", id, e.U)
		}
		deg[e.U]++
		deg[e.V]++
	}
	fadj := carve(deg)
	for _, id := range forestIDs {
		e := edges[id]
		fadj[e.U] = append(fadj[e.U], arc{e.V, id})
		fadj[e.V] = append(fadj[e.V], arc{e.U, id})
	}

	lt := newLCT(n)
	mark := make([]int32, n)
	queue := make([]int32, 0, 64)
	trees := 0
	for root := int32(0); int(root) < n; root++ {
		if mark[root] != 0 {
			continue
		}
		trees++
		mark[root] = 1
		queue = append(queue[:0], root)
		for i := 0; i < len(queue); i++ {
			v := queue[i]
			for _, a := range fadj[v] {
				if mark[a.to] != 0 {
					continue
				}
				mark[a.to] = 1
				enode[a.eid] = lt.attach(a.to, v, a.eid, edges[a.eid].W)
				queue = append(queue, a.to)
			}
		}
	}
	// A forest has exactly n - trees edges; a cycle or a repeated id
	// leaves ids the BFS never reached.
	if len(forestIDs) != n-trees {
		return fmt.Errorf("dynmsf: %d forest edges over %d vertices span only %d trees: input is not a forest",
			len(forestIDs), n, trees)
	}

	clear(deg)
	for id, e := range edges {
		if enode[id] == 0 {
			deg[e.U]++
			if e.U != e.V {
				deg[e.V]++
			}
		}
	}
	h.live = &graph.EdgeList{N: n, Edges: edges}
	h.enode = enode
	h.dead = 0
	h.fadj = fadj
	h.nadj = carve(deg)
	h.lt = lt
	h.weight = forestWeight{}
	h.forestSize = len(forestIDs)
	h.trees = trees
	for _, id := range forestIDs {
		h.weight.add(edges[id].W, 1)
	}
	for id := range edges {
		if enode[id] == 0 {
			h.poolAdd(int32(id))
		}
	}
	h.mark = mark
	h.tag = 1
	h.qa, h.qb = queue, nil
	return nil
}

// carve cuts one backing array into per-vertex arc slices of length 0
// and capacity deg[v]. Appends up to a vertex's count fill its own
// region in place; one past it reallocates that vertex alone, because
// the capacity bound keeps append from writing into the next region.
func carve(deg []int32) [][]arc {
	total := 0
	for _, d := range deg {
		total += int(d)
	}
	buf := make([]arc, total)
	adj := make([][]arc, len(deg))
	lo := 0
	for v, d := range deg {
		hi := lo + int(d)
		adj[v] = buf[lo:lo:hi]
		lo = hi
	}
	return adj
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
	obs.DynAppliedEdges.Add(int64(len(add) + len(del)))

	d := Delta{Added: len(add), Deleted: len(del)}

	// Phase 1: tombstone the deleted non-tree edges, so no repair below
	// can promote an edge this batch deletes, and collect the deleted
	// tree edges; each is tombstoned when it is cut.
	delSpan := span.Child("delete")
	var cuts []int32
	for _, id := range delIDs {
		h.dead++
		if h.enode[id] > 0 {
			cuts = append(cuts, id)
		} else {
			h.enode[id] = deleted
		}
	}
	delSpan.End()

	// Phase 2: cut the deleted tree edges one at a time, each followed
	// by its exact replacement search.
	if len(cuts) > 0 {
		repSpan := span.Child("repair")
		var visited, scanned int
		for _, id := range cuts {
			v, s := h.cutAndReplace(id, &d)
			visited += v
			scanned += s
		}
		repSpan.SetInt("replacements", int64(d.Replacements)).SetInt("splits", int64(d.Splits))
		repSpan.SetInt("visited", int64(visited)).SetInt("scanned", int64(scanned))
		repSpan.End()
	}

	// Phase 3: insertions, lightest first (cycle rule).
	if len(add) > 0 {
		insSpan := span.Child("insert")
		h.insertPhase(add, &d)
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

	obs.DynReplacements.Add(int64(d.Replacements))
	d.Weight = h.weight.value()
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
		if a.to == e.V && !taken[a.eid] && h.enode[a.eid] == 0 &&
			h.live.Edges[a.eid].W == e.W {
			return a.eid, true
		}
	}
	for _, a := range h.fadj[e.U] {
		if a.to == e.V && !taken[a.eid] && h.live.Edges[a.eid].W == e.W {
			return a.eid, true
		}
	}
	return 0, false
}

// linkForest promotes edge id into the forest, joining two trees.
func (h *Handle) linkForest(id int32) {
	e := h.live.Edges[id]
	h.enode[id] = h.lt.link(e.U, e.V, id, e.W)
	h.fadj[e.U] = append(h.fadj[e.U], arc{e.V, id})
	h.fadj[e.V] = append(h.fadj[e.V], arc{e.U, id})
	h.weight.add(e.W, 1)
	h.forestSize++
}

// unlinkForest demotes edge id out of the forest, splitting its tree,
// and leaves it a live non-tree edge. It does NOT return the edge to
// the non-tree pools: a swap does that, a deletion tombstones it.
func (h *Handle) unlinkForest(id int32) {
	e := h.live.Edges[id]
	h.lt.cut(h.enode[id], e.U, e.V)
	h.enode[id] = 0
	h.weight.add(e.W, -1)
	h.forestSize--
	h.fadj[e.U] = removeArc(h.fadj[e.U], id)
	h.fadj[e.V] = removeArc(h.fadj[e.V], id)
}

// poolAdd records a live non-tree edge in the incidence pools.
func (h *Handle) poolAdd(id int32) {
	e := h.live.Edges[id]
	h.nadj[e.U] = append(h.nadj[e.U], arc{e.V, id})
	if e.U != e.V {
		h.nadj[e.V] = append(h.nadj[e.V], arc{e.U, id})
	}
}

func removeArc(arcs []arc, id int32) []arc {
	for i, a := range arcs {
		if a.eid == id {
			last := len(arcs) - 1
			arcs[i] = arcs[last]
			return arcs[:last]
		}
	}
	return arcs
}

// less reports whether edge a precedes edge b in the (W, id) order.
func (h *Handle) less(a, b int32) bool {
	wa, wb := h.live.Edges[a].W, h.live.Edges[b].W
	return wa < wb || (wa == wb && a < b)
}

// cutAndReplace removes tree edge id from the forest and reconnects its
// two sides with the lightest live non-tree edge between them, if any.
// It returns the vertices the lockstep BFS visited and the non-tree
// arcs it scanned.
func (h *Handle) cutAndReplace(id int32, d *Delta) (visited, scanned int) {
	e := h.live.Edges[id]
	h.unlinkForest(id)
	h.enode[id] = deleted
	side, tag, visited := h.smallerSide(e.U, e.V)

	// Scan the smaller side's pools, dropping lazily deleted entries. A
	// live non-tree edge has both ends in one tree, so an arc leaving
	// the side ends on the other one.
	best := int32(-1)
	for _, v := range side {
		pool := h.nadj[v]
		scanned += len(pool)
		kept := pool[:0]
		for _, a := range pool {
			if h.enode[a.eid] != 0 {
				continue
			}
			kept = append(kept, a)
			if h.mark[a.to] != tag && (best < 0 || h.less(a.eid, best)) {
				best = a.eid
			}
		}
		h.nadj[v] = kept
	}
	if best < 0 {
		d.Splits++
		h.trees++
		return visited, scanned
	}
	h.linkForest(best)
	d.Replacements++
	return visited, scanned
}

// smallerSide runs a BFS from u and from v in lockstep over the forest
// adjacency, one vertex per side per step, and returns the side that is
// exhausted first together with its mark tag and the number of vertices
// both searches visited. u and v must be in different trees.
func (h *Handle) smallerSide(u, v int32) (side []int32, tag int32, visited int) {
	if h.tag >= math.MaxInt32-2 {
		clear(h.mark)
		h.tag = 1
	}
	ta, tb := h.tag+1, h.tag+2
	h.tag += 2
	h.mark[u], h.mark[v] = ta, tb
	a, b := append(h.qa[:0], u), append(h.qb[:0], v)
	for i := 0; ; i++ {
		if i == len(a) {
			side, tag = a, ta
			break
		}
		a = h.grow(a, i, ta)
		if i == len(b) {
			side, tag = b, tb
			break
		}
		b = h.grow(b, i, tb)
	}
	h.qa, h.qb = a, b
	return side, tag, len(a) + len(b)
}

// grow appends the unmarked forest neighbours of q[i] to q.
func (h *Handle) grow(q []int32, i int, tag int32) []int32 {
	for _, a := range h.fadj[q[i]] {
		if h.mark[a.to] != tag {
			h.mark[a.to] = tag
			q = append(q, a.to)
		}
	}
	return q
}

// insertPhase appends the batch's insertions to the store and works
// them into the forest in (W, id) order.
func (h *Handle) insertPhase(add []graph.Edge, d *Delta) {
	start := int32(len(h.live.Edges))
	h.live.Edges = append(h.live.Edges, add...)
	ids := make([]int32, 0, len(add))
	for i, e := range add {
		id := start + int32(i)
		h.enode = append(h.enode, 0)
		if e.U == e.V {
			h.poolAdd(id) // self-loops sit in the pool so deletion finds them
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return h.less(ids[i], ids[j]) })

	for _, id := range ids {
		e := h.live.Edges[id]
		q, connected := h.lt.pathMax(e.U, e.V)
		switch {
		case !connected:
			h.linkForest(id)
			h.trees--
			d.Links++
		case h.less(id, q):
			h.unlinkForest(q)
			h.poolAdd(q)
			h.linkForest(id)
			d.Swaps++
		default:
			h.poolAdd(id)
		}
	}
}

// compact rebuilds the handle over a live-only store once tombstones
// dominate. Pool order is irrelevant (pools are unsorted incidence
// lists), so a monotone id remap suffices.
func (h *Handle) compact() error {
	n := h.live.N
	liveEdges := make([]graph.Edge, 0, len(h.live.Edges)-h.dead)
	forestIDs := make([]int32, 0, h.forestSize)
	for id, e := range h.live.Edges {
		if h.enode[id] == deleted {
			continue
		}
		nid := int32(len(liveEdges))
		liveEdges = append(liveEdges, e)
		if h.enode[id] > 0 {
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
		if h.enode[id] == deleted {
			continue
		}
		nid := int32(len(g.Edges))
		g.Edges = append(g.Edges, e)
		if h.enode[id] > 0 {
			f.EdgeIDs = append(f.EdgeIDs, nid)
			f.Weight += e.W
		}
	}
	return g, f
}
