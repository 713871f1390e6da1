package boruvka

import (
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
// step is a global sort of the working list. The whole iteration runs
// on a persistent worker team out of a reusable round workspace; the
// sort engine only picks the compaction kernel. With the default
// SortParallelRadix engine that is the two-level compactor, and a
// steady-state round performs zero heap allocations. SortSampleSort
// keeps the paper's original formulation: one global parallel sample
// sort per compaction (the Fig. 2 row and the ablation).
func EL(g *graph.EdgeList, opt Options) *graph.Forest {
	r := newELRun(g, opt)
	for r.round() {
	}
	r.root.End()
	f := finish(g, r.ws.ForestIDs(), r.n)
	r.ws.Close()
	return f
}

// elRun is the Bor-EL loop state: every buffer is allocated in
// newELRun (sized for the first round, the largest the run will see)
// and the phase bodies are prebound method values, so round() allocates
// nothing beyond what the compaction kernel does — nothing at all in
// steady state with the radix kernel. Tests drive round() directly to
// pin that.
type elRun struct {
	name string
	p    int
	c    *obs.Collector
	root obs.Span
	step obs.Span // the running compaction's span: setup or compact-graph
	ws   *Workspace

	// compact is the engine's compaction kernel; comp is the two-level
	// compactor behind it, nil under SortSampleSort.
	compact compactKernel
	comp    *sorts.Compactor

	edges, spare []graph.WEdge
	starts       []int64
	labels       []int32
	n, k         int

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
	r.comp, r.compact = newCompactKernel(opt.SortEngine, p, r.ws.team, g.N, opt.Seed, &r.step)
	r.findMinBody = r.findMinWork
	r.relabelBody = r.relabelWork
	r.findMinFn = r.findMinPhase
	r.connectFn = r.connectPhase
	r.compactFn = r.compactPhase

	m := 2 * len(g.Edges)
	r.edges = make([]graph.WEdge, m)
	r.spare = make([]graph.WEdge, m)
	r.starts = make([]int64, g.N+1)

	// Initial compaction: build the directed working list, merge input
	// parallel edges and compute the vertex segment starts. (Counted as
	// setup, not as an iteration.)
	r.step = root.Child("setup")
	labeled(c, r.name, "setup", func() {
		r.edges, r.spare = r.compact.CompactEdges(g.Edges, r.edges, r.spare, r.n, r.starts[:r.n+1])
		obs.EdgesRetired.Add(int64(m - len(r.edges)))
	})
	r.setKernelArgs()
	r.step.End()
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

	r.step = it.Child("compact-graph")
	before := int64(len(r.edges))
	labeled(r.c, r.name, "compact-graph", r.compactFn)
	obs.EdgesRetired.Add(before - int64(len(r.edges)))
	r.setKernelArgs()
	r.step.End()
	obs.Supervertices.Set(int64(r.n))

	it.End()
	return true
}

// setKernelArgs records the two-level compactor's view of the last
// compaction on the running compaction span.
//
//msf:noalloc
func (r *elRun) setKernelArgs() {
	if r.comp != nil {
		r.step.SetInt("radix_passes", int64(r.comp.Passes))
		r.step.SetInt("max_segment", int64(r.comp.MaxSegment))
	}
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
// run the compaction kernel into the ping-pong buffers.
//
//msf:noalloc
func (r *elRun) compactPhase() {
	r.ws.team.Run(r.relabelBody)
	r.n = r.k
	r.edges, r.spare = r.compact.Compact(r.edges, r.spare, r.n, r.starts[:r.n+1])
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

// compactKernel is the contract of a Bor-EL compaction kernel, that of
// sorts.Compactor: Compact sorts edges by (U, V), drops self-loops,
// keeps the minimum-(W, ID) edge of every (U, V) run, fills starts
// (length n+1) with the per-vertex segment boundaries, and returns the
// compacted list with the buffer to pass as spare next time;
// CompactEdges does the same for the directed working list of an
// undirected input, built into buf.
type compactKernel interface {
	Compact(edges, spare []graph.WEdge, n int, starts []int64) (out, newSpare []graph.WEdge)
	CompactEdges(edges []graph.Edge, buf, spare []graph.WEdge, n int, starts []int64) (out, newSpare []graph.WEdge)
}

// newCompactKernel returns engine's compaction kernel for supervertex
// counts up to maxN, plus the two-level compactor behind it (nil for
// the sample sort). The radix kernel runs on team; the sample-sort
// kernel draws its splitter seeds from seed on and records each sort as
// a "sort" child of *parent.
func newCompactKernel(engine SortEngine, p int, team *par.Team, maxN int, seed uint64, parent *obs.Span) (*sorts.Compactor, compactKernel) {
	if engine == SortParallelRadix {
		comp := sorts.NewCompactor(p, team, maxN)
		return comp, comp
	}
	return nil, &sampleCompactor{team: team, seed: seed, parent: parent}
}

// sampleCompactor is the sample-sort compaction kernel: the paper's
// full-key sort of the working list by (U, V, W, ID), after which the
// head of each (U, V) run is its minimum.
type sampleCompactor struct {
	team   *par.Team
	seed   uint64    // splitter seed of the next call; each call takes the next
	parent *obs.Span // span the next call's "sort" child belongs to
}

// CompactEdges implements compactKernel: it writes the directed working
// list into buf and compacts it.
func (s *sampleCompactor) CompactEdges(edges []graph.Edge, buf, spare []graph.WEdge, n int, starts []int64) (out, newSpare []graph.WEdge) {
	return s.Compact(graph.FillDirected(buf, edges), spare, n, starts)
}

// Compact implements compactKernel.
func (s *sampleCompactor) Compact(edges, spare []graph.WEdge, n int, starts []int64) (out, newSpare []graph.WEdge) {
	sp := s.parent.Child("sort")
	sp.SetInt("elements", int64(len(edges)))
	sorts.SampleSort(s.team, edges, wedgeLess, s.seed)
	s.seed++
	sp.End()

	// Keep an edge iff it is not a self-loop and is the head of its
	// (U, V) run: with the sort order above, the head is the minimum.
	heads := s.team.PackIndices(len(edges), func(i int) bool {
		e := edges[i]
		if e.U == e.V {
			return false
		}
		return i == 0 || edges[i-1].U != e.U || edges[i-1].V != e.V
	})
	out = spare[:len(heads)]
	s.team.For(len(heads), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = edges[heads[i]]
		}
	})

	// Segment starts: first occurrence of each U, then backward fill for
	// vertices with no edges.
	for i := range starts {
		starts[i] = -1
	}
	starts[n] = int64(len(out))
	s.team.For(len(out), func(_, lo, hi int) {
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
	return out, edges
}

// CompactWorkList is the one-shot form of engine's compaction kernel:
// it sorts the directed working edge list by (U, V), drops self-loops,
// merges duplicate (U, V) runs down to their minimum-(W, ID)
// representative, and computes the per-vertex segment starts (length
// n+1). It returns the compacted list and the starts array; seed drives
// sample-sort splitter selection only.
func CompactWorkList(engine SortEngine, p int, edges []graph.WEdge, n int, seed uint64) ([]graph.WEdge, []int64) {
	team := par.NewTeam(p)
	defer team.Close()
	_, kernel := newCompactKernel(engine, p, team, n, seed, new(obs.Span))
	starts := make([]int64, n+1)
	out, _ := kernel.Compact(edges, make([]graph.WEdge, len(edges)), n, starts)
	return out, starts
}
