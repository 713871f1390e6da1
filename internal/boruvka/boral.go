package boruvka

import (
	"pmsf/internal/arena"
	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/par"
	"pmsf/internal/sorts"
)

// AL computes the minimum spanning forest with the Bor-AL variant:
// parallel Borůvka over adjacency arrays whose compact-graph step is a
// two-level sort — a parallel group sort of the vertex array by
// supervertex label, then concurrent sequential sorts of each vertex's
// adjacency list — followed by a merge of each group's sorted lists.
func AL(g *graph.EdgeList, opt Options) *graph.Forest {
	return runAL(g, opt, false, "Bor-AL")
}

// ALM computes the minimum spanning forest with the Bor-ALM variant: the
// identical algorithm and data structures as Bor-AL, but all transient
// memory (per-list sort scratch, iteration output buffers, k-way merge
// heads) comes from private per-worker buffers that are reused across
// iterations instead of fresh shared-heap allocations — the Go analogue
// of the paper's per-thread memory segments replacing the contended
// system malloc. Together with the shared round workspace this makes the
// ALM steady-state round allocation-free, which is the whole point of
// the variant; plain AL deliberately keeps the heap allocations so the
// A2 ablation retains its contrast.
func ALM(g *graph.EdgeList, opt Options) *graph.Forest {
	return runAL(g, opt, true, "Bor-ALM")
}

// adjLess orders adjacency entries by (To, W, EID): target supervertex as
// the key (the paper's per-list sort key), weight and edge id as
// tie-breaks so the head of every target run is the minimum edge.
func adjLess(a, b graph.AdjEntry) bool {
	if a.To != b.To {
		return a.To < b.To
	}
	if a.W != b.W {
		return a.W < b.W
	}
	return a.EID < b.EID
}

// alState is the "loose CSR" working form: vertex v's adjacency list is
// arcs[off[v] : off[v]+deg[v]]. Regions may be over-allocated so that a
// merged group can be written in place of its bound without a second
// compaction pass.
type alState struct {
	n    int
	off  []int64
	deg  []int32
	arcs []graph.AdjEntry
}

func (s *alState) adj(v int32) []graph.AdjEntry {
	o := s.off[v]
	return s.arcs[o : o+int64(s.deg[v])]
}

// kwayLimit is the group size above which mergeGroup falls back from a
// direct k-way merge to concatenate-and-sort.
const kwayLimit = 16

// alMem serves the variant-dependent memory policy. In heap mode every
// request is a fresh allocation; in arena mode per-worker buffers and the
// iteration output buffer are reused, and the per-iteration vertex
// arrays (degree, k-way merge heads) come from reusable backing slices
// as well.
type alMem struct {
	arena   bool
	sortBuf [][]graph.AdjEntry // per worker: merge-sort scratch
	// concatSlabs serve the group-merge concat fallback from per-worker
	// slab allocators (internal/arena): allocations within an iteration
	// stack up in private pages and a Reset at the next compact-graph
	// reuses them — the paper's per-thread memory segments.
	concatSlabs []*arena.Slab[graph.AdjEntry]
	kwayBuf     [][][]graph.AdjEntry // per worker: reusable k-way merge heads
	spare       []graph.AdjEntry     // ping-pong iteration output buffer
	i32Bufs     [4][]int32           // reusable vertex-sized arrays
	degSlot     int                  // ping-pong slot (2 or 3) for the degree array
}

func newALMem(arenaMode bool, p int) *alMem {
	m := &alMem{arena: arenaMode}
	if arenaMode {
		m.sortBuf = make([][]graph.AdjEntry, p)
		m.concatSlabs = make([]*arena.Slab[graph.AdjEntry], p)
		m.kwayBuf = make([][][]graph.AdjEntry, p)
		for w := range m.concatSlabs {
			m.concatSlabs[w] = arena.NewSlab[graph.AdjEntry](1 << 14)
			m.kwayBuf[w] = make([][]graph.AdjEntry, 0, kwayLimit)
		}
	}
	return m
}

// resetIteration recycles the per-worker slab pages for the next
// compact-graph pass.
func (m *alMem) resetIteration() {
	for _, s := range m.concatSlabs {
		s.Reset()
	}
}

func (m *alMem) sortScratch(w, n int) []graph.AdjEntry {
	if !m.arena {
		return make([]graph.AdjEntry, n)
	}
	if cap(m.sortBuf[w]) < n {
		m.sortBuf[w] = make([]graph.AdjEntry, n+n/2)
	}
	return m.sortBuf[w][:n]
}

func (m *alMem) concatScratch(w, n int) []graph.AdjEntry {
	if !m.arena {
		return make([]graph.AdjEntry, n)
	}
	return m.concatSlabs[w].Alloc(n)
}

// kwayLists returns an empty slice of list heads with room for
// kwayLimit entries; arena mode reuses a per-worker backing array.
func (m *alMem) kwayLists(w int) [][]graph.AdjEntry {
	if !m.arena {
		return make([][]graph.AdjEntry, 0, kwayLimit)
	}
	return m.kwayBuf[w][:0]
}

// vertexInts returns a zeroed int32 slice of length n. In arena mode
// slot selects one of the reusable backing arrays (callers use distinct
// slots for arrays that are alive simultaneously); in heap mode every
// call allocates.
func (m *alMem) vertexInts(slot, n int) []int32 {
	if !m.arena {
		return make([]int32, n)
	}
	buf := m.i32Bufs[slot]
	if cap(buf) < n {
		buf = make([]int32, n+n/2)
		m.i32Bufs[slot] = buf
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// output returns a buffer of n entries for the iteration's merged arcs
// and retains old (the previous arcs array) for reuse.
func (m *alMem) output(n int, old []graph.AdjEntry) []graph.AdjEntry {
	if !m.arena {
		return make([]graph.AdjEntry, n)
	}
	buf := m.spare
	if cap(buf) < n {
		buf = make([]graph.AdjEntry, n)
	}
	m.spare = old
	return buf[:n]
}

// alRun is the team-based Bor-AL/ALM loop state. All loop-level arrays
// (off ping-pong, grouping order/starts, per-worker totals) are sized
// for the first round and reused; the variant-dependent transient
// memory goes through alMem. With the arena policy (Bor-ALM) the
// steady-state round allocates nothing.
type alRun struct {
	name      string
	p, cutoff int
	c         *obs.Collector
	root      obs.Span
	ws        *Workspace
	mem       *alMem
	st        alState

	offSpare  []int64 // ping-pong partner of st.off's backing array
	order     []int32
	gstarts   []int64
	arcTotals []int64 // per-worker arc counts for totalArcs
	labels    []int32
	k         int
	total     int64

	// Compact-phase scratch published to the worker bodies.
	newOff  []int64
	newArcs []graph.AdjEntry
	newDeg  []int32

	findMinBody   func(worker, lo, hi int)
	sortListsBody func(worker, lo, hi int)
	mergeBody     func(worker, lo, hi int)
	relabelBody   func(int)
	boundBody     func(int)
	totalBody     func(int)
	findMinFn     func()
	connectFn     func()
	compactFn     func()
}

func newALRun(g *graph.EdgeList, opt Options, arenaMode bool, name string) *alRun {
	p := opt.workers()
	c, root := obsStart(opt, name, p)
	r := &alRun{
		name:   name,
		p:      p,
		cutoff: opt.cutoff(),
		c:      c,
		root:   root,
		mem:    newALMem(arenaMode, p),
	}
	r.ws = NewWorkspace(p, g.N)
	r.findMinBody = r.findMinWork
	r.sortListsBody = r.sortListsWork
	r.mergeBody = r.mergeWork
	r.relabelBody = r.relabelWork
	r.boundBody = r.boundWork
	r.totalBody = r.totalWork
	r.findMinFn = r.findMinPhase
	r.connectFn = r.connectPhase
	r.compactFn = r.compactPhase

	adj := graph.BuildAdj(g)
	r.st = alState{n: adj.N, off: adj.Off, arcs: adj.Arcs}
	r.st.deg = make([]int32, adj.N)
	for v := 0; v < adj.N; v++ {
		r.st.deg[v] = int32(adj.Off[v+1] - adj.Off[v])
	}
	// The initial CSR may contain parallel edges from the input; they are
	// merged by the first compact-graph like in the paper.
	r.offSpare = make([]int64, adj.N+1)
	r.order = make([]int32, adj.N)
	r.gstarts = make([]int64, adj.N+1)
	r.arcTotals = make([]int64, p)
	return r
}

//msf:noalloc
func (r *alRun) totalArcs() int64 {
	r.ws.team.Run(r.totalBody)
	var t int64
	for _, v := range r.arcTotals {
		t += v
	}
	return t
}

//msf:noalloc
func (r *alRun) round() bool {
	total := r.totalArcs()
	if total == 0 {
		return false
	}
	it := r.root.Child("iteration")
	it.SetInt("n", int64(r.st.n))
	it.SetInt("list_size", total)

	step := it.Child("find-min")
	labeled(r.c, r.name, "find-min", r.findMinFn)
	step.End()

	step = it.Child("connect-components")
	labeled(r.c, r.name, "connect-components", r.connectFn)
	step.End()

	step = it.Child("compact-graph")
	labeled(r.c, r.name, "compact-graph", r.compactFn)
	step.End()
	if obs.MetricsOn() {
		retire(total - r.totalArcs())
		contracted(r.st.n)
	}

	it.End()
	return true
}

//msf:noalloc
func (r *alRun) findMinPhase() {
	r.ws.team.ForDynamic(r.st.n, 512, r.findMinBody)
	r.ws.Harvest(r.st.n)
}

// findMinWork scans each vertex's adjacency list for its minimum edge.
//
//msf:noalloc
func (r *alRun) findMinWork(_, lo, hi int) {
	parent, sel := r.ws.parent, r.ws.sel
	for v := lo; v < hi; v++ {
		list := r.st.adj(int32(v))
		if len(list) == 0 {
			parent[v] = int32(v)
			continue
		}
		best := 0
		for i := 1; i < len(list); i++ {
			if list[i].W < list[best].W ||
				(list[i].W == list[best].W && list[i].EID < list[best].EID) {
				best = i
			}
		}
		parent[v] = list[best].To
		sel[v] = list[best].EID
	}
}

//msf:noalloc
func (r *alRun) connectPhase() {
	r.labels, r.k = r.ws.res.Resolve(r.ws.parent[:r.st.n])
}

// compactPhase performs the Bor-AL compact-graph step: relabel arc
// targets, group vertices by supervertex label (team counting sort),
// sort each vertex's list (insertion sort below cutoff, bottom-up merge
// sort above), and merge every group's sorted lists into the new
// supervertex's list, dropping self-loops and keeping the minimum edge
// per target.
//
//msf:noalloc
func (r *alRun) compactPhase() {
	r.mem.resetIteration()
	k := r.k

	// Relabel arc targets to new supervertex ids.
	r.ws.team.Run(r.relabelBody)

	// Level-1 sort: group the vertex array by supervertex label.
	r.ws.grp.Group(r.labels, k, r.order[:r.st.n], r.gstarts[:k+1])

	// Level-2 sort: each vertex's list, concurrently.
	r.ws.team.ForDynamic(r.st.n, 256, r.sortListsBody)

	// Bound each group's output region by the sum of member degrees, then
	// turn the sizes into region starts with an exclusive prefix sum.
	r.newOff = r.offSpare[:k+1]
	r.ws.team.Run(r.boundBody)
	var pos int64
	for g := 0; g < k; g++ {
		v := r.newOff[g]
		r.newOff[g] = pos
		pos += v
	}
	r.newOff[k] = pos

	r.newArcs = r.mem.output(int(pos), r.st.arcs)
	// The degree array must not alias the previous iteration's (still
	// being read below), so arena mode ping-pongs between two slots.
	degSlot := 2 + r.mem.degSlot
	r.mem.degSlot = 1 - r.mem.degSlot
	r.newDeg = r.mem.vertexInts(degSlot, k)

	// Merge each group's sorted member lists.
	r.ws.team.ForDynamic(k, 64, r.mergeBody)

	r.offSpare = r.st.off[:cap(r.st.off)]
	r.st = alState{n: k, off: r.newOff[:k], deg: r.newDeg, arcs: r.newArcs}
	r.newOff, r.newArcs, r.newDeg = nil, nil, nil
}

//msf:noalloc
func (r *alRun) relabelWork(w int) {
	lo, hi := par.Block(r.st.n, r.p, w)
	labels := r.labels
	for v := lo; v < hi; v++ {
		list := r.st.adj(int32(v))
		for i := range list {
			list[i].To = labels[list[i].To]
		}
	}
}

//msf:noalloc
func (r *alRun) sortListsWork(w, lo, hi int) {
	for v := lo; v < hi; v++ {
		list := r.st.adj(int32(v))
		if len(list) < r.cutoff {
			sorts.Insertion(list, adjLess)
		} else {
			sorts.MergeBottomUp(list, r.mem.sortScratch(w, len(list)), adjLess)
		}
	}
}

//msf:noalloc
func (r *alRun) boundWork(w int) {
	lo, hi := par.Block(r.k, r.p, w)
	order, gstarts := r.order, r.gstarts
	for g := lo; g < hi; g++ {
		var sum int64
		for i := gstarts[g]; i < gstarts[g+1]; i++ {
			sum += int64(r.st.deg[order[i]])
		}
		r.newOff[g] = sum
	}
}

//msf:noalloc
func (r *alRun) mergeWork(w, lo, hi int) {
	for g := lo; g < hi; g++ {
		members := r.order[r.gstarts[g]:r.gstarts[g+1]]
		dst := r.newArcs[r.newOff[g]:r.newOff[g+1]]
		r.newDeg[g] = mergeGroup(&r.st, members, int32(g), dst, w, r.mem)
	}
}

//msf:noalloc
func (r *alRun) totalWork(w int) {
	lo, hi := par.Block(r.st.n, r.p, w)
	deg := r.st.deg
	var t int64
	for v := lo; v < hi; v++ {
		t += int64(deg[v])
	}
	r.arcTotals[w] = t
}

func runAL(g *graph.EdgeList, opt Options, arenaMode bool, name string) *graph.Forest {
	r := newALRun(g, opt, arenaMode, name)
	for r.round() {
	}
	r.root.End()
	f := finish(g, r.ws.ForestIDs(), r.st.n)
	r.ws.Close()
	return f
}

// mergeGroup merges the sorted adjacency lists of the member vertices
// into dst, skipping self-loops (To == self) and collapsing duplicate
// targets to their first (minimum) entry. It returns the merged length.
// Small groups use a direct k-way merge; large groups fall back to
// concatenate-and-sort.
func mergeGroup(st *alState, members []int32, self int32, dst []graph.AdjEntry, w int, mem *alMem) int32 {
	if len(members) == 1 {
		// Isolated supervertex (no chosen edge): list must be empty.
		return filterCopy(st.adj(members[0]), self, dst)
	}
	if len(members) > kwayLimit {
		var total int
		for _, v := range members {
			total += int(st.deg[v])
		}
		buf := mem.concatScratch(w, total)
		pos := 0
		for _, v := range members {
			pos += copy(buf[pos:], st.adj(v))
		}
		sorts.MergeBottomUp(buf, dst[:len(buf)], adjLess)
		return filterCopy(buf, self, dst)
	}
	// K-way merge with linear head scan (groups are small).
	lists := mem.kwayLists(w)
	for _, v := range members {
		if l := st.adj(v); len(l) > 0 {
			lists = append(lists, l)
		}
	}
	var out int32
	lastTo := int32(-1)
	for len(lists) > 0 {
		best := 0
		for i := 1; i < len(lists); i++ {
			if adjLess(lists[i][0], lists[best][0]) {
				best = i
			}
		}
		e := lists[best][0]
		lists[best] = lists[best][1:]
		if len(lists[best]) == 0 {
			lists[best] = lists[len(lists)-1]
			lists = lists[:len(lists)-1]
		}
		if e.To != self && e.To != lastTo {
			dst[out] = e
			out++
			lastTo = e.To
		}
	}
	return out
}

// filterCopy copies src into dst dropping self-loops and duplicate
// targets (src must be sorted by adjLess); returns the kept count.
//
//msf:noalloc
func filterCopy(src []graph.AdjEntry, self int32, dst []graph.AdjEntry) int32 {
	var out int32
	lastTo := int32(-1)
	for _, e := range src {
		if e.To == self || e.To == lastTo {
			continue
		}
		dst[out] = e
		out++
		lastTo = e.To
	}
	return out
}
