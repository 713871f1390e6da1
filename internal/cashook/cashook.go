// Package cashook implements Bor-CAS, a lock-free CAS-hook minimum
// spanning forest engine in the style of the GBBS nd.h spanning-forest
// algorithm. The edge list is sorted once by (weight, id) — the library's
// canonical total order — and partitioned into weight buckets (maximal
// runs of equal weight). Buckets are processed in increasing weight
// order; inside a bucket every edge races concurrently through
// uf.Concurrent.UnionEdge, whose CAS-hook protocol records the winning
// edge id into a per-vertex hook slot. Because all edges of a bucket
// share one weight, any maximal acyclic subset the races select has the
// same total weight, edge count and resulting component partition as
// Kruskal's choice (the matroid exchange property), so the forest weight
// is exactly the MSF weight under arbitrary interleavings.
//
// Unlike the Borůvka variants there is no round loop over the graph at
// all: no find-min scans, no connect-components, no compact-graph. The
// only superlinear work is the single setup sort; the hook phase is
// near-linear in m with the inverted-Ackermann union-find factor. On
// inputs with heavy weight ties (small-integer or quantized weights)
// whole buckets hook in parallel; with fully distinct weights buckets
// degenerate to singletons and the engine becomes a lock-free-UF Kruskal
// behind a parallel sort.
package cashook

import (
	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/par"
	"pmsf/internal/sorts"
	"pmsf/internal/uf"
)

// Options configures a Bor-CAS run.
type Options struct {
	// Workers is the number of parallel workers p; 0 means GOMAXPROCS.
	Workers int
	// Seed drives the setup sample sort's splitter selection only; the
	// result is identical for every seed.
	Seed uint64
	// Trace, when non-nil, receives the sort/hook/collect spans; hook
	// carries the bucket counts (buckets, max_bucket, parallel_buckets).
	Trace *obs.Collector
}

// parCutoff is the bucket length at which hooking moves onto the worker
// team; shorter buckets are hooked inline by the calling goroutine (the
// team barrier costs more than a handful of CAS loops).
const parCutoff = 512

// hookGrain is the ForDynamic chunk size of the parallel hook phase.
const hookGrain = 256

// run is the bucket-loop state: everything is allocated in newRun and
// round() (one bucket per call) performs no heap allocation, pinned by
// TestBorCASRoundZeroAllocs.
type run struct {
	p     int
	team  *par.Team
	u     *uf.Concurrent
	hooks []int32 // CAS-hook slots, mutated only through uf.UnionEdge
	edges []graph.WEdge
	cur   int

	buckets, maxBucket, parBuckets int

	lo       int // current bucket start, read by hookBody
	hookBody func(worker, lo, hi int)
}

func workers(opt Options) int {
	if opt.Workers <= 0 {
		return par.DefaultWorkers()
	}
	return opt.Workers
}

// weightLess is the canonical (weight, id) total order.
func weightLess(a, b graph.WEdge) bool {
	if a.W != b.W {
		return a.W < b.W
	}
	return a.ID < b.ID
}

// newRun sorts the edge list and prepares the hook state.
func newRun(g *graph.EdgeList, opt Options, root obs.Span) *run {
	p := workers(opt)
	r := &run{p: p, team: par.NewTeam(p)}
	r.hookBody = r.hookWork

	edges := make([]graph.WEdge, 0, len(g.Edges))
	for id, e := range g.Edges {
		if e.U == e.V {
			continue
		}
		edges = append(edges, graph.WEdge{U: e.U, V: e.V, ID: int32(id), W: e.W})
	}

	sp := root.Child("sort")
	sp.SetInt("elements", int64(len(edges)))
	labeled(opt.Trace, "Bor-CAS", "sort", func() {
		sorts.SampleSort(p, edges, weightLess, opt.Seed)
	})
	sp.End()
	r.edges = edges

	r.u = uf.NewConcurrent(g.N)
	r.hooks = make([]int32, g.N)
	par.For(p, g.N, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			r.hooks[v] = uf.NoEdge
		}
	})
	return r
}

// close releases the worker team.
func (r *run) close() { r.team.Close() }

// round processes the next weight bucket (the maximal run of equal
// weight at the cursor) and reports whether one existed. Long buckets
// hook concurrently on the team; short ones inline on the caller.
//
//msf:noalloc
func (r *run) round() bool {
	m := len(r.edges)
	if r.cur >= m {
		return false
	}
	lo := r.cur
	w := r.edges[lo].W
	hi := lo + 1
	for hi < m && r.edges[hi].W == w {
		hi++
	}
	r.cur = hi
	r.buckets++
	if hi-lo > r.maxBucket {
		r.maxBucket = hi - lo
	}
	if hi-lo >= parCutoff && r.p > 1 {
		r.parBuckets++
		r.lo = lo
		r.team.ForDynamic(hi-lo, hookGrain, r.hookBody)
		return true
	}
	for i := lo; i < hi; i++ {
		e := r.edges[i]
		r.u.UnionEdge(e.U, e.V, e.ID, r.hooks)
	}
	return true
}

//msf:noalloc
func (r *run) hookWork(_, lo, hi int) {
	edges, hooks := r.edges[r.lo:], r.hooks
	for i := lo; i < hi; i++ {
		e := edges[i]
		r.u.UnionEdge(e.U, e.V, e.ID, hooks)
	}
}

// Run computes the minimum spanning forest of g.
func Run(g *graph.EdgeList, opt Options) *graph.Forest {
	p := workers(opt)
	root := obs.StartUnder(opt.Trace, obs.Span{}, "Bor-CAS", "Bor-CAS")
	root.SetInt("workers", int64(p))

	r := newRun(g, opt, root)
	defer r.close()

	hp := root.Child("hook")
	labeled(opt.Trace, "Bor-CAS", "hook", func() {
		for r.round() {
		}
	})
	hp.SetInt("buckets", int64(r.buckets))
	hp.SetInt("max_bucket", int64(r.maxBucket))
	hp.SetInt("parallel_buckets", int64(r.parBuckets))
	hp.End()

	cp := root.Child("collect")
	var f *graph.Forest
	labeled(opt.Trace, "Bor-CAS", "collect", func() {
		f = collect(p, g, r.hooks)
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
func collect(p int, g *graph.EdgeList, hooks []int32) *graph.Forest {
	picked := par.PackIndices(p, len(hooks), func(v int) bool {
		return hooks[v] != uf.NoEdge
	})
	f := &graph.Forest{
		EdgeIDs:    make([]int32, len(picked)),
		Components: len(hooks) - len(picked),
	}
	for i, v := range picked {
		id := hooks[v]
		f.EdgeIDs[i] = id
		f.Weight += g.Edges[id].W
	}
	return f
}

// labeled runs fn under the collector's pprof phase label when tracing
// is live, and directly otherwise.
func labeled(c *obs.Collector, algo, phase string, fn func()) {
	if c != nil {
		c.Labeled(algo, phase, fn)
		return
	}
	fn()
}
