// Package writemin implements Bor-WM, a filter-Borůvka minimum spanning
// forest engine in the style of parlaylib's boruvka.h: the find-min step
// is a concurrent write-min race on a per-vertex atomic uint64, and the
// compact-graph step degenerates to a relabel plus a self-edge filter —
// no sort, no duplicate merging, no adjacency rebuild inside the round
// loop.
//
// A setup-time parallel sort by the library's canonical (weight, id)
// order assigns every edge a distinct rank; the race key packs that rank
// with the edge's current working-list index as rank<<32|index. Plain
// unsigned comparison of keys therefore realizes the exact (weight, id)
// total order, which is what makes the engine safe: with a total order
// on edge priorities the chosen-neighbor pointer graph contains only
// mutual 2-cycles (the classic Borůvka argument), the invariant
// cc.Resolver asserts. Racing on weight bits alone would admit longer
// cycles among tied edges.
//
// Memory ordering: the write-min CAS loop publishes only the winning key
// into best[v]; no payload is read through it until the race phase has
// quiesced behind the worker-team barrier, which establishes the
// happens-before edge for the winner-pick pass. The loop re-loads and
// retries only while its key is strictly smaller than the current value,
// so it is lock-free and each slot is monotonically decreasing.
package writemin

import (
	"sync/atomic"

	"pmsf/internal/cc"
	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/par"
	"pmsf/internal/sorts"
)

// Options configures a Bor-WM run.
type Options struct {
	// Workers is the number of parallel workers p; 0 means GOMAXPROCS.
	Workers int
	// Seed drives the setup sample sort's splitter selection only; the
	// result is identical for every seed.
	Seed uint64
	// Trace, when non-nil, receives the iteration/step spans, in the
	// Borůvka engines' schema (identical span and arg names), so
	// reporting and benching treat Bor-WM like the other round-loop
	// engines.
	Trace *obs.Collector
}

// wmEdge is a working edge: endpoints in current supervertex labels, the
// original edge id (for the forest), and the edge's rank in the global
// (weight, id) order — distinct per edge, assigned once at setup.
type wmEdge struct {
	U, V, ID, Rank int32
}

// noMin is the reset value of a best slot: no incident edge raced yet.
const noMin = ^uint64(0)

// raceKey packs an edge's priority for the write-min race: the distinct
// (weight, id) rank in the high half makes unsigned comparison exact,
// and the current working-list index in the low half lets the winner
// pass recover the edge without an id→index table.
//
//msf:packer
//msf:noalloc
func raceKey(rank int32, idx int) uint64 {
	return uint64(uint32(rank))<<32 | uint64(uint32(idx))
}

// raceIdx recovers the working-list index from a race key's low half —
// the only sanctioned decode of a best-slot value.
//
//msf:unpacker
//msf:noalloc
func raceIdx(key uint64) int {
	return int(uint32(key))
}

// writeMin lowers a toward key with a lock-free CAS loop; the slot value
// is monotonically decreasing so the loop terminates as soon as a
// smaller-or-equal key is observed.
//
//msf:packsink key
//msf:noalloc
func writeMin(a *atomic.Uint64, key uint64) {
	for {
		cur := a.Load()
		if key >= cur {
			return
		}
		if a.CompareAndSwap(cur, key) {
			return
		}
	}
}

// run is the round-loop state: every buffer is allocated in newRun and
// the phase bodies are prebound method values, so round() performs no
// heap allocation in steady state (pinned by TestBorWMRoundZeroAllocs).
type run struct {
	name string
	p    int
	c    *obs.Collector
	root obs.Span
	team *par.Team
	res  *cc.Resolver

	edges, spare []wmEdge // full-capacity ping-pong; live prefix is [:m]
	m            int
	// best holds the per-vertex write-min race slots, rank<<32|index
	// keys built by raceKey and decoded by raceIdx only.
	//
	//msf:packed
	best        []atomic.Uint64
	parent, sel []int32
	labels      []int32
	ids         []int32
	idsLen      int
	wcount      []int64
	n, k        int

	resetBody, raceBody, winnerBody func(worker, lo, hi int)
	harvestCountBody                func(int)
	harvestScatterBody              func(int)
	filterCountBody                 func(int)
	filterScatterBody               func(int)
	findMinFn                       func()
	connectFn                       func()
	compactFn                       func()
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

// newRun ranks the edges and allocates the round state.
func newRun(g *graph.EdgeList, opt Options) *run {
	p := workers(opt)
	c := opt.Trace
	root := obs.StartUnder(c, obs.Span{}, "Bor-WM", "Bor-WM")
	root.SetInt("workers", int64(p))

	r := &run{name: "Bor-WM", p: p, c: c, root: root, n: g.N}
	r.team = par.NewTeam(p)
	r.res = cc.NewResolver(p, r.team)
	r.resetBody = r.resetWork
	r.raceBody = r.raceWork
	r.winnerBody = r.winnerWork
	r.harvestCountBody = r.harvestCountWork
	r.harvestScatterBody = r.harvestScatterWork
	r.filterCountBody = r.filterCountWork
	r.filterScatterBody = r.filterScatterWork
	r.findMinFn = r.findMinPhase
	r.connectFn = r.connectPhase
	r.compactFn = r.compactPhase

	setup := root.Child("setup")
	labeled(c, r.name, "setup", func() {
		tmp := make([]graph.WEdge, 0, len(g.Edges))
		for id, e := range g.Edges {
			if e.U == e.V {
				continue
			}
			tmp = append(tmp, graph.WEdge{U: e.U, V: e.V, ID: int32(id), W: e.W})
		}
		sorts.SampleSort(p, tmp, weightLess, opt.Seed)
		r.edges = make([]wmEdge, len(tmp))
		for i, e := range tmp {
			r.edges[i] = wmEdge{U: e.U, V: e.V, ID: e.ID, Rank: int32(i)}
		}
	})
	r.m = len(r.edges)
	r.spare = make([]wmEdge, r.m)
	r.best = make([]atomic.Uint64, g.N)
	r.parent = make([]int32, g.N)
	r.sel = make([]int32, g.N)
	r.ids = make([]int32, g.N) // a forest has at most n-1 edges
	r.wcount = make([]int64, p)
	setup.SetInt("elements", int64(r.m))
	setup.End()
	return r
}

// close releases the worker team.
func (r *run) close() { r.team.Close() }

// round runs one filter-Borůvka iteration and reports whether the
// working list still had edges.
//
//msf:noalloc
func (r *run) round() bool {
	if r.m == 0 {
		return false
	}
	it := r.root.Child("iteration")
	it.SetInt("n", int64(r.n))
	it.SetInt("list_size", int64(r.m))

	step := it.Child("find-min")
	labeled(r.c, r.name, "find-min", r.findMinFn)
	step.End()

	step = it.Child("connect-components")
	labeled(r.c, r.name, "connect-components", r.connectFn)
	step.End()

	step = it.Child("compact-graph")
	before := int64(r.m)
	labeled(r.c, r.name, "compact-graph", r.compactFn)
	if gone := before - int64(r.m); gone > 0 && obs.MetricsOn() {
		obs.EdgesRetired.Add(gone)
	}
	step.End()
	if obs.MetricsOn() {
		obs.Supervertices.Set(int64(r.n))
	}

	it.End()
	return true
}

// findMinPhase: reset the best slots, race every working edge into both
// endpoints' slots, pick the winners into (parent, sel), harvest.
//
//msf:noalloc
func (r *run) findMinPhase() {
	r.team.ForDynamic(r.n, 2048, r.resetBody)
	r.team.ForDynamic(r.m, 512, r.raceBody)
	r.team.ForDynamic(r.n, 1024, r.winnerBody)
	r.harvest()
}

//msf:noalloc
func (r *run) resetWork(_, lo, hi int) {
	best := r.best
	for v := lo; v < hi; v++ {
		best[v].Store(noMin)
	}
}

//msf:noalloc
func (r *run) raceWork(_, lo, hi int) {
	edges, best := r.edges, r.best
	for i := lo; i < hi; i++ {
		e := edges[i]
		key := raceKey(e.Rank, i)
		writeMin(&best[e.U], key)
		writeMin(&best[e.V], key)
	}
}

//msf:noalloc
func (r *run) winnerWork(_, lo, hi int) {
	edges, best, parent, sel := r.edges, r.best, r.parent, r.sel
	for v := lo; v < hi; v++ {
		b := best[v].Load()
		if b == noMin {
			parent[v] = int32(v)
			continue
		}
		e := edges[raceIdx(b)]
		sel[v] = e.ID
		if e.U == int32(v) {
			parent[v] = e.V
		} else {
			parent[v] = e.U
		}
	}
}

// picked reports whether supervertex v owns its selected edge this
// round: it chose a neighbor, and in the mutual-pair case the smaller
// endpoint owns the shared edge.
//
//msf:noalloc
func picked(parent []int32, v int) bool {
	pv := parent[v]
	if int(pv) == v {
		return false
	}
	return int(parent[pv]) != v || int(pv) >= v
}

// harvest appends each owned selection to the forest-id buffer via a
// per-worker count, an exclusive scan, and a scatter. parent must be the
// raw chosen-neighbor array BEFORE resolve.
//
//msf:noalloc
func (r *run) harvest() {
	r.team.Run(r.harvestCountBody)
	total := int64(r.idsLen)
	// O(p) coordinator scan over per-worker counters: serial by design
	// (see the scan taxonomy in par/scan.go) — unlike the Θ(nd·p)
	// histogram scans par.Scanner parallelizes, p adds cost less here
	// than one team barrier would.
	for w := 0; w < r.p; w++ {
		v := r.wcount[w]
		r.wcount[w] = total
		total += v
	}
	r.team.Run(r.harvestScatterBody)
	r.idsLen = int(total)
}

//msf:noalloc
func (r *run) harvestCountWork(w int) {
	lo, hi := par.Block(r.n, r.p, w)
	parent := r.parent
	var c int64
	for v := lo; v < hi; v++ {
		if picked(parent, v) {
			c++
		}
	}
	r.wcount[w] = c
}

//msf:noalloc
func (r *run) harvestScatterWork(w int) {
	lo, hi := par.Block(r.n, r.p, w)
	parent, sel, ids := r.parent, r.sel, r.ids
	pos := r.wcount[w]
	for v := lo; v < hi; v++ {
		if picked(parent, v) {
			ids[pos] = sel[v]
			pos++
		}
	}
}

//msf:noalloc
func (r *run) connectPhase() {
	r.labels, r.k = r.res.Resolve(r.parent[:r.n])
}

// compactPhase: relabel endpoints to the new supervertex ids and filter
// the now-self edges into the spare buffer — count, scan, scatter — then
// swap the ping-pong. Parallel edges between surviving supervertex pairs
// are kept: the write-min race makes duplicates harmless, which is the
// whole point of skipping the sort-based compact.
//
//msf:noalloc
func (r *run) compactPhase() {
	r.team.Run(r.filterCountBody)
	var total int64
	// O(p) coordinator scan, serial by design (see par/scan.go).
	for w := 0; w < r.p; w++ {
		v := r.wcount[w]
		r.wcount[w] = total
		total += v
	}
	r.team.Run(r.filterScatterBody)
	r.edges, r.spare = r.spare, r.edges
	r.m = int(total)
	r.n = r.k
}

//msf:noalloc
func (r *run) filterCountWork(w int) {
	lo, hi := par.Block(r.m, r.p, w)
	edges, labels := r.edges, r.labels
	var c int64
	for i := lo; i < hi; i++ {
		if labels[edges[i].U] != labels[edges[i].V] {
			c++
		}
	}
	r.wcount[w] = c
}

//msf:noalloc
func (r *run) filterScatterWork(w int) {
	lo, hi := par.Block(r.m, r.p, w)
	edges, spare, labels := r.edges, r.spare, r.labels
	pos := r.wcount[w]
	for i := lo; i < hi; i++ {
		e := edges[i]
		u, v := labels[e.U], labels[e.V]
		if u != v {
			e.U, e.V = u, v
			spare[pos] = e
			pos++
		}
	}
}

// Run computes the minimum spanning forest of g.
func Run(g *graph.EdgeList, opt Options) *graph.Forest {
	r := newRun(g, opt)
	defer r.close()
	for r.round() {
	}
	r.root.End()
	f := &graph.Forest{EdgeIDs: r.ids[:r.idsLen], Components: r.n}
	for _, id := range f.EdgeIDs {
		f.Weight += g.Edges[id].W
	}
	return f
}

// labeled runs fn under the collector's pprof phase label when tracing
// is live, and directly otherwise.
//
//msf:noalloc
func labeled(c *obs.Collector, algo, phase string, fn func()) {
	if c != nil {
		c.Labeled(algo, phase, fn)
		return
	}
	fn()
}
