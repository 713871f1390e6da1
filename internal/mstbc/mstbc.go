// Package mstbc implements the paper's new parallel MSF algorithm
// (Section 4, Algorithms 1 and 2): p coordinated instances of Prim's
// algorithm grow vertex-disjoint subtrees concurrently over the shared
// graph. A processor claims an uncolored vertex with a CAS, grows a tree
// with a private heap while all frontier vertices can still be claimed,
// and stops growing ("the tree is mature") on a collision with another
// processor's color. Unvisited vertices then select their lightest
// incident edge (a Borůvka step), mature subtrees are contracted with a
// lock-free union-find, and the algorithm recurses on the contracted
// graph until the problem is small enough to finish sequentially.
//
// On one processor the algorithm behaves as Prim's; on n processors it
// degenerates to Borůvka's; for 1 < p < n it is the paper's hybrid.
package mstbc

import (
	"math"
	"sync/atomic"
	"time"

	"pmsf/internal/boruvka"
	"pmsf/internal/graph"
	"pmsf/internal/heap"
	"pmsf/internal/obs"
	"pmsf/internal/par"
	"pmsf/internal/rng"
	"pmsf/internal/seq"
	"pmsf/internal/uf"
)

// Options configures an MST-BC run.
type Options struct {
	// Workers is the number of concurrent Prim instances p; 0 means
	// GOMAXPROCS.
	Workers int
	// BaseSize is the paper's n_b: once the contracted graph has at most
	// this many supervertices, one worker finishes the job with the best
	// sequential algorithm. 0 means DefaultBaseSize.
	BaseSize int
	// Permute randomizes the vertex claim order each round — the paper's
	// progress guarantee against adversarial synchronization. Disabled
	// only by the ablation benchmarks.
	NoPermute bool
	// Seed drives the claim-order permutation and sample-sort splitters.
	Seed uint64
	// Stats enables per-level instrumentation.
	Stats bool
	// Trace, when non-nil, receives hierarchical spans for every level
	// and phase. The returned Stats derive from the same span tree.
	Trace *obs.Collector
	// Parent, when live, nests the run's spans under an enclosing span;
	// it implies the parent's collector and overrides Trace.
	Parent obs.Span
}

// DefaultBaseSize is the default sequential cutoff n_b.
const DefaultBaseSize = 256

// LevelStats instruments one recursion level.
type LevelStats struct {
	N, M       int   // supervertices / undirected edges at level start
	Trees      int64 // subtrees grown by the parallel Prim phase
	Collisions int64 // growth stops due to a foreign color
	Steals     int64 // start vertices claimed from another partition
	Visited    int64 // vertices incorporated into mature subtrees
	GrowTime   time.Duration
	FixupTime  time.Duration // Borůvka step for unvisited vertices
	Contract   time.Duration // union-find + relabel + rebuild
}

// Stats instruments a run.
type Stats struct {
	Workers   int
	Levels    []LevelStats
	SeqBaseN  int // size of the problem handed to the sequential solver
	SeqBaseM  int
	TotalTime time.Duration
}

// partition is a work-stealing range of the claim order: the owner takes
// from the front, thieves from the back (the paper's decreasing pointer).
// Packed head/tail in one word keeps claims lock-free.
type partition struct {
	// state packs the unclaimed range [head, tail) as head<<32|tail,
	// built by packRange and decoded by unpackRange only.
	//
	//msf:packed
	state atomic.Uint64
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
func Run(g *graph.EdgeList, opt Options) (*graph.Forest, *Stats) {
	p := opt.Workers
	if p <= 0 {
		p = par.DefaultWorkers()
	}
	nb := opt.BaseSize
	if nb <= 0 {
		nb = DefaultBaseSize
	}
	start := time.Now()
	c := opt.Trace
	if opt.Parent.Live() {
		c = opt.Parent.Collector()
	}
	if c == nil && opt.Stats {
		c = obs.NewCollector()
	}
	root := obs.StartUnder(c, opt.Parent, algoName, algoName)
	root.SetInt("workers", int64(p))

	// Working graph: the Bor-EL state (directed edges sorted by U with
	// per-vertex segment starts doubles as a CSR for the Prim growth).
	edges := graph.DirectedWorkList(g)
	n := g.N
	var starts []int64
	setup := root.Child("setup")
	c.Labeled(algoName, "setup", func() {
		edges, starts = boruvka.CompactWorkList(boruvka.SortSampleSort, p, edges, n, opt.Seed, setup)
	})
	setup.End()

	var ids []int32
	r := rng.New(opt.Seed + 0x5eed)
	// Per-worker heaps are sized for the initial problem and reused on
	// every level (levels only shrink).
	heaps := make([]*heap.IndexedHeap, p)
	if len(edges) > 0 && n > nb {
		for w := range heaps {
			heaps[w] = heap.New(n)
		}
	}
	level := 0
	for len(edges) > 0 && n > nb {
		ids, edges, starts, n = runLevel(p, n, edges, starts, opt, r, ids, c, root, heaps)
		level++
		if level > 64 {
			// Progress is guaranteed (see the zero-selection fallback in
			// runLevel), so this is purely defensive.
			panic("mstbc: no convergence after 64 levels")
		}
	}

	// Sequential base case: finish with Kruskal on the contracted graph.
	if len(edges) > 0 {
		sb := root.Child("seq-base")
		sb.SetInt("n", int64(n))
		sb.SetInt("m", int64(len(edges)/2))
		c.Labeled(algoName, "seq-base", func() {
			ids = append(ids, sequentialFinish(n, edges)...)
			// All inter-supervertex edges are resolved now; components of
			// the base graph determine the remaining supervertex count.
			n = baseComponents(n, edges)
		})
		sb.End()
	}
	root.End()
	stats := statsView(c, root, p, opt.Stats)
	stats.TotalTime = time.Since(start)
	return finishForest(g, ids, n), stats
}

// algoName is the span/category/pprof-label name of the algorithm.
const algoName = "MST-BC"

// statsView materializes the Stats of a run as a view over its span
// tree: one LevelStats per "level" child of root, counters from span
// args, phase times from the phase child spans. When collect is false
// only the identity fields are filled.
func statsView(c *obs.Collector, root obs.Span, p int, collect bool) *Stats {
	stats := &Stats{Workers: p}
	if !collect || c == nil {
		return stats
	}
	spans := c.Spans()
	for _, r := range spans {
		if r.Parent != root.ID() {
			continue
		}
		switch r.Name {
		case "level":
			var lv LevelStats
			arg := func(key string) int64 { v, _ := r.Arg(key); return v }
			lv.N = int(arg("n"))
			lv.M = int(arg("m"))
			lv.Trees = arg("trees")
			lv.Collisions = arg("collisions")
			lv.Steals = arg("steals")
			lv.Visited = arg("visited")
			for _, ph := range obs.ChildrenOf(spans, r.ID) {
				switch ph.Name {
				case "grow":
					lv.GrowTime = ph.Dur
				case "fixup":
					lv.FixupTime = ph.Dur
				case "contract":
					lv.Contract = ph.Dur
				}
			}
			stats.Levels = append(stats.Levels, lv)
		case "seq-base":
			if v, ok := r.Arg("n"); ok {
				stats.SeqBaseN = int(v)
			}
			if v, ok := r.Arg("m"); ok {
				stats.SeqBaseM = int(v)
			}
		}
	}
	return stats
}

// runLevel executes one round of Alg. 1 (steps 1-5): the concurrent Prim
// growth, the Borůvka fix-up for unvisited vertices, and the contraction.
func runLevel(
	p, n int,
	edges []graph.WEdge, starts []int64,
	opt Options, r *rng.Xoshiro256,
	ids []int32, c *obs.Collector, root obs.Span,
	heaps []*heap.IndexedHeap,
) ([]int32, []graph.WEdge, []int64, int) {
	lv := root.Child("level")
	lv.SetInt("n", int64(n))
	lv.SetInt("m", int64(len(edges)/2))

	treeArcs := make([][]int32, p) // arc indices selected by each worker
	var trees, collisions, steals, stealAttempts, visitedCount atomic.Int64
	visited := make([]int32, n) // accessed atomically; 1 = in a mature tree

	grow := lv.Child("grow")
	c.Labeled(algoName, "grow", func() {
		// Claim order: random permutation unless disabled.
		var order []int32
		if opt.NoPermute {
			order = make([]int32, n)
			for i := range order {
				order[i] = int32(i)
			}
		} else {
			order = r.Perm(n)
		}

		color := make([]int64, n) // accessed atomically; 0 = uncolored

		parts := make([]partition, p)
		ranges := par.Split(n, p)
		for w := range parts {
			parts[w].init(ranges[w].Lo, ranges[w].Hi)
		}

		par.Do(p, func(w int) {
			h := heaps[w]
			var myTrees, myColl, mySteals, myAttempts, myVisited int64
			claim := func(pi int) {
				for {
					var idx int
					var ok bool
					if pi == w {
						idx, ok = parts[pi].takeFront()
					} else {
						myAttempts++
						idx, ok = parts[pi].takeBack()
					}
					if !ok {
						return
					}
					v := order[idx]
					if !atomic.CompareAndSwapInt64(&color[v], 0, myColors(w, p, myTrees)) {
						continue // already claimed by someone (possibly us)
					}
					myTrees++
					grown, coll := growTree(v, myColors(w, p, myTrees-1), h, color, visited, edges, starts, &treeArcs[w])
					myVisited += grown
					if coll {
						myColl++
					}
				}
			}
			claim(w)
			// Work stealing: help unfinished partitions from the back, with
			// the victim order randomized per worker (the paper: "an
			// unfinished partition is randomly selected").
			victims := make([]int, 0, p-1)
			for v := 0; v < p; v++ {
				if v != w {
					victims = append(victims, v)
				}
			}
			vr := rng.New(opt.Seed ^ (uint64(w)+1)*0x9e3779b97f4a7c15 ^ uint64(n))
			for i := len(victims) - 1; i > 0; i-- {
				j := vr.Intn(i + 1)
				victims[i], victims[j] = victims[j], victims[i]
			}
			for _, victim := range victims {
				before := myTrees
				claim(victim)
				mySteals += myTrees - before
			}
			trees.Add(myTrees)
			collisions.Add(myColl)
			steals.Add(mySteals)
			stealAttempts.Add(myAttempts)
			visitedCount.Add(myVisited)
		})
	})
	grow.End()
	lv.SetInt("trees", trees.Load())
	lv.SetInt("collisions", collisions.Load())
	lv.SetInt("steals", steals.Load())
	lv.SetInt("visited", visitedCount.Load())
	if obs.MetricsOn() {
		obs.StealAttempts.Add(stealAttempts.Load())
		obs.StealSuccesses.Add(steals.Load())
	}

	// Step 3 (Alg. 1): every vertex not incorporated into a mature tree
	// labels its lightest incident edge — a Borůvka step.
	fixup := lv.Child("fixup")
	parent := make([]int32, n)
	selArc := make([]int32, n)
	var picked []int32
	c.Labeled(algoName, "fixup", func() {
		par.ForDynamic(p, n, 1024, func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				if atomic.LoadInt32(&visited[v]) != 0 {
					parent[v] = int32(v)
					continue
				}
				parent[v], selArc[v] = lightest(int32(v), edges, starts)
			}
		})
		selected := countSelections(p, parent)
		treeEdgeCount := int64(0)
		for w := 0; w < p; w++ {
			treeEdgeCount += int64(len(treeArcs[w]))
		}
		if selected == 0 && treeEdgeCount == 0 {
			// Pathological synchronization (the paper's n/p-cycle example):
			// no progress was made. Fall back to a full Borůvka find-min over
			// every vertex, which always selects at least one edge when edges
			// remain.
			par.ForDynamic(p, n, 1024, func(_, lo, hi int) {
				for v := lo; v < hi; v++ {
					parent[v], selArc[v] = lightest(int32(v), edges, starts)
				}
			})
			selected = countSelections(p, parent)
		}
		// Harvest the Borůvka selections, deduplicating mutual pairs.
		picked = par.PackIndices(p, n, func(v int) bool {
			pv := parent[v]
			if int(pv) == v {
				return false
			}
			if int(parent[pv]) == v && int(pv) < v {
				return false
			}
			return true
		})
		for _, v := range picked {
			ids = append(ids, edges[selArc[v]].ID)
		}
		// Harvest the tree edges.
		for w := 0; w < p; w++ {
			for _, arc := range treeArcs[w] {
				ids = append(ids, edges[arc].ID)
			}
		}
	})
	fixup.End()

	// Steps 4-5: contract with a lock-free union-find over all selected
	// edges, relabel densely, rebuild the working graph.
	contract := lv.Child("contract")
	var k int
	c.Labeled(algoName, "contract", func() {
		u := uf.NewConcurrent(n)
		par.Do(p, func(w int) {
			for _, arc := range treeArcs[w] {
				u.Union(edges[arc].U, edges[arc].V)
			}
		})
		par.For(p, len(picked), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				v := picked[i]
				e := edges[selArc[v]]
				u.Union(e.U, e.V)
			}
		})
		var labels []int32
		labels, k = denseLabels(p, u)
		par.For(p, len(edges), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				edges[i].U = labels[edges[i].U]
				edges[i].V = labels[edges[i].V]
			}
		})
		before := int64(len(edges))
		edges, starts = boruvka.CompactWorkList(boruvka.SortSampleSort, p, edges, k, opt.Seed+uint64(k), contract)
		if obs.MetricsOn() {
			if d := before - int64(len(edges)); d > 0 {
				obs.EdgesRetired.Add(d)
			}
			obs.Supervertices.Set(int64(k))
		}
	})
	contract.End()
	lv.End()
	return ids, edges, starts, k
}

// myColors returns the unique color for worker w's t-th tree (Alg. 2 step
// 1.2: color = treeCount*p + workerID, offset to keep 0 = uncolored).
func myColors(w, p int, t int64) int64 {
	return t*int64(p) + int64(w) + 1
}

// growTree runs the Prim growth loop of Alg. 2 from root v with color my.
// It returns the number of vertices incorporated and whether growth ended
// in a collision with a foreign color.
//
//msf:atomic color visited
func growTree(
	v int32, my int64, h *heap.IndexedHeap,
	color []int64, visited []int32,
	edges []graph.WEdge, starts []int64,
	out *[]int32,
) (grown int64, collided bool) {
	h.Reset()
	h.Push(v, math.Inf(-1), -1)
	for h.Len() > 0 {
		w, _, arc := h.PopMin()
		if atomic.LoadInt64(&color[w]) != my {
			collided = true
			break
		}
		// Maturity check: a foreign-colored neighbor means this tree
		// touches another processor's tree.
		foreign := false
		for i := starts[w]; i < starts[w+1]; i++ {
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
		if atomic.LoadInt32(&visited[w]) == 0 {
			atomic.StoreInt32(&visited[w], 1)
			grown++
			if arc >= 0 {
				*out = append(*out, arc)
			}
			for i := starts[w]; i < starts[w+1]; i++ {
				uu := edges[i].V
				// Claim free neighbors; but insert into the heap
				// REGARDLESS of color, exactly as Alg. 2 does. A foreign
				// vertex that surfaces at the top of the heap triggers
				// the collision break above, which is what preserves
				// Prim's cut invariant: the popped key is always the
				// minimum edge crossing the tree cut, and the tree stops
				// rather than skip past a lost lighter crossing edge.
				atomic.CompareAndSwapInt64(&color[uu], 0, my)
				if h.Contains(uu) {
					h.DecreaseKey(uu, edges[i].W, int32(i))
				} else {
					h.Push(uu, edges[i].W, int32(i))
				}
			}
		}
	}
	h.Reset()
	return grown, collided
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

func countSelections(p int, parent []int32) int64 {
	return par.ReduceInt64(p, len(parent), func(_, lo, hi int) int64 {
		var c int64
		for v := lo; v < hi; v++ {
			if int(parent[v]) != v {
				c++
			}
		}
		return c
	})
}

// denseLabels extracts dense component labels from a concurrent
// union-find after all unions are complete.
func denseLabels(p int, u *uf.Concurrent) ([]int32, int) {
	n := u.Len()
	root := make([]int32, n)
	par.For(p, n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			root[v] = u.Find(int32(v))
		}
	})
	roots := par.PackIndices(p, n, func(i int) bool { return int(root[i]) == i })
	k := len(roots)
	rootLabel := make([]int32, n)
	par.For(p, k, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			rootLabel[roots[i]] = int32(i)
		}
	})
	labels := make([]int32, n)
	par.For(p, n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			labels[v] = rootLabel[root[v]]
		}
	})
	return labels, k
}

// sequentialFinish solves the base problem with Kruskal over the directed
// working list (each undirected edge kept once) and returns the selected
// original edge ids.
func sequentialFinish(n int, edges []graph.WEdge) []int32 {
	el := &graph.EdgeList{N: n}
	keep := make([]int32, 0, len(edges)/2)
	for i, e := range edges {
		if e.U < e.V {
			el.Edges = append(el.Edges, graph.Edge{U: e.U, V: e.V, W: e.W})
			keep = append(keep, int32(i))
		}
	}
	f := seq.Kruskal(el)
	out := make([]int32, len(f.EdgeIDs))
	for i, localID := range f.EdgeIDs {
		out[i] = edges[keep[localID]].ID
	}
	return out
}

// baseComponents counts the connected components of the base graph so the
// final forest reports the true component count.
func baseComponents(n int, edges []graph.WEdge) int {
	u := uf.New(n)
	for _, e := range edges {
		if e.U < e.V {
			u.Union(e.U, e.V)
		}
	}
	return u.Count()
}

func finishForest(g *graph.EdgeList, ids []int32, components int) *graph.Forest {
	f := &graph.Forest{EdgeIDs: ids, Components: components}
	for _, id := range ids {
		f.Weight += g.Edges[id].W
	}
	return f
}
