package boruvka

import (
	"pmsf/internal/cc"
	"pmsf/internal/obs"
	"pmsf/internal/par"
	"pmsf/internal/sorts"
)

// Workspace is the reusable round state shared by the team-based Borůvka
// loops and MST-BC's levels: the persistent worker team, the team-based
// connect-components resolver and counting grouper, the chosen-neighbor
// and selected-edge arrays, the growing forest-edge list, and the
// per-worker counters of the harvest step. Everything is allocated once
// per run, sized for the first (largest) round, and reused until the
// forest is done — the steady-state rounds of Bor-EL, Bor-ALM and
// Bor-FAL perform zero heap allocations on top of it.
type Workspace struct {
	p    int
	team *par.Team
	res  *cc.Resolver
	grp  *sorts.Grouper

	parent []int32
	sel    []int32

	ids    []int32 // forest edge ids accumulated across rounds
	idsLen int

	wcount []int64 // per-worker picked counts / scatter offsets

	n                  int // harvest range, set per call
	harvestCountBody   func(int)
	harvestScatterBody func(int)
}

// NewWorkspace builds a workspace for a run over n0 original vertices
// with p workers. Close releases the team.
func NewWorkspace(p, n0 int) *Workspace {
	ws := &Workspace{
		p:      p,
		team:   par.NewTeam(p),
		parent: make([]int32, n0),
		sel:    make([]int32, n0),
		ids:    make([]int32, n0), // a forest has at most n0-1 edges
		wcount: make([]int64, p),
	}
	ws.res = cc.NewResolver(p, ws.team)
	ws.grp = sorts.NewGrouper(p, ws.team)
	ws.harvestCountBody = ws.harvestCountWork
	ws.harvestScatterBody = ws.harvestScatterWork
	return ws
}

// Close shuts the worker team down.
func (ws *Workspace) Close() { ws.team.Close() }

// Team returns the workspace's persistent worker team.
func (ws *Workspace) Team() *par.Team { return ws.team }

// Resolver returns the team-based connect-components resolver.
func (ws *Workspace) Resolver() *cc.Resolver { return ws.res }

// Selections returns the chosen-neighbor and selected-edge-id arrays
// (length n0) that Harvest reads.
func (ws *Workspace) Selections() (parent, sel []int32) { return ws.parent, ws.sel }

// ForestIDs returns the accumulated forest edge ids.
func (ws *Workspace) ForestIDs() []int32 { return ws.ids[:ws.idsLen] }

// AppendForest adds one edge id to the accumulated forest.
//
//msf:noalloc
func (ws *Workspace) AppendForest(id int32) {
	ws.ids[ws.idsLen] = id
	ws.idsLen++
}

// Harvest appends the edge selected by each supervertex in [0, n) that
// found an outgoing minimum edge, deduplicating mutual pairs exactly
// like the package-level harvest, but out of the reused ids buffer: a
// per-worker count, an exclusive scan, and a scatter of sel values.
// parent must be the raw chosen-neighbor array BEFORE resolve.
//
//msf:noalloc
func (ws *Workspace) Harvest(n int) {
	ws.n = n
	ws.team.Run(ws.harvestCountBody)
	total := int64(ws.idsLen)
	// O(p) coordinator scan, serial by design (see par/scan.go).
	for w := 0; w < ws.p; w++ {
		v := ws.wcount[w]
		ws.wcount[w] = total
		total += v
	}
	ws.team.Run(ws.harvestScatterBody)
	ws.idsLen = int(total)
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

//msf:noalloc
func (ws *Workspace) harvestCountWork(w int) {
	lo, hi := par.Block(ws.n, ws.p, w)
	parent := ws.parent
	var c int64
	for v := lo; v < hi; v++ {
		if picked(parent, v) {
			c++
		}
	}
	ws.wcount[w] = c
}

//msf:noalloc
func (ws *Workspace) harvestScatterWork(w int) {
	lo, hi := par.Block(ws.n, ws.p, w)
	parent, sel, ids := ws.parent, ws.sel, ws.ids
	pos := ws.wcount[w]
	for v := lo; v < hi; v++ {
		if picked(parent, v) {
			ids[pos] = sel[v]
			pos++
		}
	}
}

// labeled runs fn under the collector's pprof phase label when tracing
// is live, and calls it directly (no closure, no allocation) otherwise.
//
//msf:noalloc
func labeled(c *obs.Collector, algo, phase string, fn func()) {
	if c != nil {
		c.Labeled(algo, phase, fn)
		return
	}
	fn()
}
