package boruvka

import (
	"pmsf/internal/cc"
	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/par"
	"pmsf/internal/sorts"
)

// wedgeLess orders working edges by (U, V, W, ID): the sample-sort key of
// the paper's compact-graph step (supervertex of the first endpoint as
// primary key, supervertex of the second as secondary, weight as
// tertiary). The edge id is the deterministic tie-break.
func wedgeLess(a, b graph.WEdge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	if a.V != b.V {
		return a.V < b.V
	}
	if a.W != b.W {
		return a.W < b.W
	}
	return a.ID < b.ID
}

// EL computes the minimum spanning forest with the Bor-EL variant:
// parallel Borůvka over an edge-list representation whose compact-graph
// step is a global sort of the working list. With the default
// SortParallelRadix engine the whole iteration runs on a persistent
// worker team out of a reusable round workspace — packed-key parallel
// radix compaction, zero heap allocations per steady-state round.
// SortSampleSort keeps the paper's original formulation: one global
// parallel sample sort per compaction (the Fig. 2 row and the ablation).
func EL(g *graph.EdgeList, opt Options) *graph.Forest {
	if opt.SortEngine == SortParallelRadix {
		return elTeam(g, opt)
	}
	return elSorted(g, opt)
}

// elRun is the team-based Bor-EL loop state: every buffer is allocated
// in newELRun (sized for the first round, the largest the run will see)
// and the phase bodies are prebound method values, so round() allocates
// nothing in steady state. Tests drive round() directly to pin that.
type elRun struct {
	name string
	p    int
	c    *obs.Collector
	root obs.Span
	ws   *Workspace
	comp *sorts.Compactor

	edges, spare []graph.WEdge
	keepIdx      []int32
	starts       []int64
	labels       []int32
	n, k         int
	iter         int

	findMinBody func(worker, lo, hi int)
	relabelBody func(int)
	findMinFn   func()
	connectFn   func()
	compactFn   func()
}

func newELRun(g *graph.EdgeList, opt Options) *elRun {
	p := opt.workers()
	c, root := obsStart(opt, "Bor-EL", p)
	r := &elRun{name: "Bor-EL", p: p, c: c, root: root, n: g.N}
	r.ws = NewWorkspace(p, g.N)
	r.comp = sorts.NewCompactor(p, r.ws.team)
	r.findMinBody = r.findMinWork
	r.relabelBody = r.relabelWork
	r.findMinFn = r.findMinPhase
	r.connectFn = r.connectPhase
	r.compactFn = r.compactPhase

	r.edges = graph.DirectedWorkList(g)
	m := len(r.edges)
	r.spare = make([]graph.WEdge, m)
	r.keepIdx = make([]int32, m)
	r.starts = make([]int64, g.N+1)

	// Initial compaction: merge input parallel edges and compute the
	// vertex segment starts. (Counted as setup, not as an iteration.)
	setup := root.Child("setup")
	labeled(c, r.name, "setup", func() {
		before := int64(len(r.edges))
		r.edges, r.spare = r.comp.Compact(r.edges, r.spare, r.n, r.keepIdx, r.starts[:r.n+1])
		retire(before - int64(len(r.edges)))
	})
	setup.SetInt("radix_passes", int64(r.comp.Passes))
	setup.End()
	return r
}

// round runs one Borůvka iteration and reports whether the working list
// still had edges (i.e. whether an iteration actually ran).
//
//msf:noalloc
func (r *elRun) round() bool {
	if len(r.edges) == 0 {
		return false
	}
	it := r.root.Child("iteration")
	it.SetInt("n", int64(r.n))
	it.SetInt("list_size", int64(len(r.edges)))

	step := it.Child("find-min")
	labeled(r.c, r.name, "find-min", r.findMinFn)
	step.End()

	step = it.Child("connect-components")
	labeled(r.c, r.name, "connect-components", r.connectFn)
	step.End()

	step = it.Child("compact-graph")
	before := int64(len(r.edges))
	labeled(r.c, r.name, "compact-graph", r.compactFn)
	retire(before - int64(len(r.edges)))
	step.SetInt("radix_passes", int64(r.comp.Passes))
	step.SetInt("digit_bits", int64(r.comp.LastDigitBits))
	step.SetInt("scatter_flushes", r.comp.LastFlushes)
	step.SetInt("scatter_buffered", boolArg(r.comp.LastScatterBuffered))
	step.SetInt("scan_parallel", boolArg(r.comp.LastScanParallel))
	step.End()
	contracted(r.n)

	it.End()
	r.iter++
	return true
}

func elTeam(g *graph.EdgeList, opt Options) *graph.Forest {
	r := newELRun(g, opt)
	for r.round() {
	}
	r.root.End()
	f := finish(g, r.ws.ForestIDs(), r.n)
	r.ws.Close()
	return f
}

// findMinPhase: each vertex scans its contiguous segment of the sorted
// working list for its minimum edge, then the round's selections are
// harvested into the forest.
//
//msf:noalloc
func (r *elRun) findMinPhase() {
	r.ws.team.ForDynamic(r.n, 1024, r.findMinBody)
	r.ws.Harvest(r.n)
}

//msf:noalloc
func (r *elRun) findMinWork(_, lo, hi int) {
	edges, starts := r.edges, r.starts
	parent, sel := r.ws.parent, r.ws.sel
	for v := lo; v < hi; v++ {
		segLo, segHi := starts[v], starts[v+1]
		if segLo == segHi {
			parent[v] = int32(v)
			continue
		}
		best := segLo
		for i := segLo + 1; i < segHi; i++ {
			if edges[i].W < edges[best].W ||
				(edges[i].W == edges[best].W && edges[i].ID < edges[best].ID) {
				best = i
			}
		}
		parent[v] = edges[best].V
		sel[v] = edges[best].ID
	}
}

//msf:noalloc
func (r *elRun) connectPhase() {
	r.labels, r.k = r.ws.res.Resolve(r.ws.parent[:r.n])
}

// compactPhase: relabel both endpoints to the new supervertex ids, then
// run the packed-key radix compaction into the ping-pong buffers.
//
//msf:noalloc
func (r *elRun) compactPhase() {
	r.ws.team.Run(r.relabelBody)
	r.n = r.k
	r.edges, r.spare = r.comp.Compact(r.edges, r.spare, r.n, r.keepIdx, r.starts[:r.n+1])
}

//msf:noalloc
func (r *elRun) relabelWork(w int) {
	lo, hi := par.Block(len(r.edges), r.p, w)
	edges, labels := r.edges, r.labels
	for i := lo; i < hi; i++ {
		edges[i].U = labels[edges[i].U]
		edges[i].V = labels[edges[i].V]
	}
}

// elSorted is the sample-sort Bor-EL loop: the paper's original
// formulation, kept for the Fig. 2 row and the sort-engine ablation.
func elSorted(g *graph.EdgeList, opt Options) *graph.Forest {
	p := opt.workers()
	const name = "Bor-EL"
	c, root := obsStart(opt, name, p)

	edges := graph.DirectedWorkList(g)
	n := g.N
	// Initial compaction: sort and merge parallel edges, compute vertex
	// segment starts. (Counted as setup, not as an iteration.)
	var starts []int64
	setup := root.Child("setup")
	c.Labeled(name, "setup", func() {
		before := int64(len(edges))
		edges, starts = CompactWorkList(opt.SortEngine, p, edges, n, opt.Seed, setup)
		retire(before - int64(len(edges)))
	})
	setup.End()

	var ids []int32
	iter := 0
	for len(edges) > 0 {
		it := root.Child("iteration")
		it.SetInt("n", int64(n))
		it.SetInt("list_size", int64(len(edges)))

		// Step 1: find-min. Segments are contiguous after the sort, so
		// each vertex scans its own run of the edge list.
		step := it.Child("find-min")
		parent := make([]int32, n)
		sel := make([]int32, n)
		c.Labeled(name, "find-min", func() {
			par.ForDynamic(p, n, 1024, func(_, lo, hi int) {
				for v := lo; v < hi; v++ {
					segLo, segHi := starts[v], starts[v+1]
					if segLo == segHi {
						parent[v] = int32(v)
						continue
					}
					best := segLo
					for i := segLo + 1; i < segHi; i++ {
						if edges[i].W < edges[best].W ||
							(edges[i].W == edges[best].W && edges[i].ID < edges[best].ID) {
							best = i
						}
					}
					parent[v] = edges[best].V
					sel[v] = edges[best].ID
				}
			})
			ids = harvest(p, parent, sel, ids)
		})
		step.End()

		// Step 2: connect-components by pointer jumping.
		step = it.Child("connect-components")
		var labels []int32
		var k int
		c.Labeled(name, "connect-components", func() {
			labels, k = cc.Resolve(p, parent)
		})
		step.End()

		// Step 3: compact-graph — relabel, global sort, merge.
		step = it.Child("compact-graph")
		c.Labeled(name, "compact-graph", func() {
			par.For(p, len(edges), func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					edges[i].U = labels[edges[i].U]
					edges[i].V = labels[edges[i].V]
				}
			})
			n = k
			before := int64(len(edges))
			edges, starts = CompactWorkList(opt.SortEngine, p, edges, n, opt.Seed+uint64(iter)+1, step)
			retire(before - int64(len(edges)))
		})
		step.End()
		contracted(n)

		it.End()
		iter++
	}
	root.End()
	return finish(g, ids, n)
}

// CompactWorkList sorts the directed working edge list by (U, V, W, ID)
// with the given engine, drops self-loops, merges duplicate (U, V) runs
// down to their minimum-weight representative, and computes the
// per-vertex segment starts (length n+1). It returns the compacted list
// and the starts array. The sort kernel is recorded as a "sort" child
// span of parent (inert parents record nothing); seed drives sample-sort
// splitter selection only.
func CompactWorkList(engine SortEngine, p int, edges []graph.WEdge, n int, seed uint64, parent obs.Span) ([]graph.WEdge, []int64) {
	sp := parent.Child("sort")
	sp.SetInt("elements", int64(len(edges)))
	if engine == SortParallelRadix {
		// One-shot use of the packed-key kernel (the team-based EL loop
		// owns a persistent compactor instead of coming through here).
		team := par.NewTeam(p)
		comp := sorts.NewCompactor(p, team)
		keepIdx := make([]int32, len(edges))
		starts := make([]int64, n+1)
		out, _ := comp.Compact(edges, make([]graph.WEdge, len(edges)), n, keepIdx, starts)
		team.Close()
		sp.SetInt("radix_passes", int64(comp.Passes))
		sp.End()
		return out, starts
	}
	sorts.SampleSort(p, edges, wedgeLess, seed)
	sp.End()

	// Keep an edge iff it is not a self-loop and is the head of its
	// (U, V) run: with the sort order above, the head is the minimum.
	keepIdx := par.PackIndices(p, len(edges), func(i int) bool {
		e := edges[i]
		if e.U == e.V {
			return false
		}
		if i == 0 {
			return true
		}
		prev := edges[i-1]
		return prev.U != e.U || prev.V != e.V
	})
	out := make([]graph.WEdge, len(keepIdx))
	par.For(p, len(keepIdx), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = edges[keepIdx[i]]
		}
	})

	// Segment starts: first occurrence of each U, then backward fill for
	// vertices with no edges.
	starts := make([]int64, n+1)
	for i := range starts {
		starts[i] = -1
	}
	starts[n] = int64(len(out))
	par.For(p, len(out), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if i == 0 || out[i-1].U != out[i].U {
				starts[out[i].U] = int64(i)
			}
		}
	})
	for v := n - 1; v >= 0; v-- {
		if starts[v] < 0 {
			starts[v] = starts[v+1]
		}
	}
	return out, starts
}
