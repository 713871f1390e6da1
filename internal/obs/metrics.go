package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Var is the expvar-compatible variable interface: String must return a
// valid JSON value, so every registry variable also satisfies expvar.Var.
type Var interface {
	String() string
}

// Counter is a monotonically increasing int64 metric, safe for
// concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (d < 0 is ignored: counters are
// monotonic by contract).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// String renders the count as a JSON number (expvar.Var).
func (c *Counter) String() string { return strconv.FormatInt(c.v.Load(), 10) }

// reset zeroes the counter (registry Reset only; not part of the
// monotonic public contract).
func (c *Counter) reset() { c.v.Store(0) }

// Gauge is a settable int64 metric, safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// String renders the value as a JSON number (expvar.Var).
func (g *Gauge) String() string { return strconv.FormatInt(g.v.Load(), 10) }

func (g *Gauge) reset() { g.v.Store(0) }

// Registry is a named collection of metrics. The zero value is not
// usable; use NewRegistry or the process-wide Default registry.
type Registry struct {
	mu   sync.Mutex
	vars map[string]Var
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{vars: make(map[string]Var)}
}

// Counter returns the named counter, creating it on first use. It
// panics if the name is already registered as a different kind.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[name]; ok {
		c, ok := v.(*Counter)
		if !ok {
			panic(fmt.Sprintf("obs: %q is registered as %T, not a counter", name, v))
		}
		return c
	}
	c := &Counter{}
	r.vars[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use. It panics if
// the name is already registered as a different kind.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[name]; ok {
		g, ok := v.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("obs: %q is registered as %T, not a gauge", name, v))
		}
		return g
	}
	g := &Gauge{}
	r.vars[name] = g
	return g
}

// Do calls f for every registered variable in name order.
func (r *Registry) Do(f func(name string, v Var)) {
	r.mu.Lock()
	names := make([]string, 0, len(r.vars))
	for name := range r.vars {
		names = append(names, name)
	}
	sort.Strings(names)
	vars := make([]Var, len(names))
	for i, name := range names {
		vars[i] = r.vars[name]
	}
	r.mu.Unlock()
	for i, name := range names {
		f(name, vars[i])
	}
}

// Snapshot returns the current value of every variable.
func (r *Registry) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	r.Do(func(name string, v Var) {
		switch m := v.(type) {
		case *Counter:
			out[name] = m.Value()
		case *Gauge:
			out[name] = m.Value()
		}
	})
	return out
}

// Reset zeroes every counter and gauge: msf-bench -algo calls it before
// its run so the snapshot covers exactly that run.
func (r *Registry) Reset() {
	r.Do(func(_ string, v Var) {
		switch m := v.(type) {
		case *Counter:
			m.reset()
		case *Gauge:
			m.reset()
		}
	})
}

// WriteJSON writes the registry as one sorted JSON object.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the algorithm kernels emit
// into.
func Default() *Registry { return defaultRegistry }

// The canonical process-wide metrics. Kernels update them on every run;
// each update is one atomic add or store.
var (
	// EdgesRetired counts working-list entries eliminated by the
	// compact-graph steps (self-loops, duplicates, contracted arcs).
	EdgesRetired = Default().Counter("edges_retired")
	// Supervertices tracks the current supervertex count of the most
	// recent contraction.
	Supervertices = Default().Gauge("supervertices")
	// StealAttempts counts MST-BC take-from-the-back claim attempts on
	// foreign partitions.
	StealAttempts = Default().Counter("steal_attempts")
	// StealSuccesses counts claims that actually obtained a vertex from a
	// foreign partition.
	StealSuccesses = Default().Counter("steal_successes")
	// ArenaBytes counts bytes served by the per-worker slab allocators.
	ArenaBytes = Default().Counter("arena_bytes")
	// SortElements counts elements passed to the parallel sort kernels.
	SortElements = Default().Counter("sort_elements")
	// ParPhases counts phases run on a par.Team.
	ParPhases = Default().Counter("par_phases")
	// ParChunks counts dynamically scheduled chunks claimed by ForDynamic.
	ParChunks = Default().Counter("par_chunks")
	// RadixPasses counts, per two-level compaction, the sweeps that
	// moved the edges of its longest U segment: one for the counting
	// scatter by U, plus one per 8-bit digit of V when that segment was
	// longer than the insertion cutoff and so was LSD radix sorted.
	RadixPasses = Default().Counter("radix_passes")
	// ParScans counts team-parallel prefix-sum phases executed by
	// par.Scanner (the sequential small-input fallback is not counted).
	ParScans = Default().Counter("par_scans")
	// WorkspaceReused counts bytes served from reusable round workspaces
	// (double-buffered edge arrays, starts and histogram slabs)
	// instead of fresh heap allocations.
	WorkspaceReused = Default().Counter("workspace_reused_bytes")
	// DynAppliedEdges counts edge mutations (adds plus deletes) applied
	// through dynmsf.ApplyEdges.
	DynAppliedEdges = Default().Counter("dyn_applied_edges")
	// DynReplacements counts non-tree edges promoted into the forest by
	// the replacement-edge search after tree-edge deletions.
	DynReplacements = Default().Counter("dyn_replacements")
)
