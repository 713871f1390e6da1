// Package boruvka implements the paper's four parallel Borůvka variants
// for shared memory (Section 2):
//
//   - EL  (Bor-EL):  edge-list representation, compact-graph by a global
//     sort of the edge list: the two-level compactor (a
//     counting sort by supervertex, then a sort of each
//     vertex's segment) by default, or the paper's parallel
//     sample sort (SortSampleSort).
//   - AL  (Bor-AL):  adjacency-array representation, compact-graph by a
//     two-level sort (parallel group sort of the vertices
//     plus concurrent sequential sorts of each adjacency
//     list: insertion sort for short lists, non-recursive
//     merge sort for long ones).
//   - ALM (Bor-ALM): the AL algorithm with all transient memory served
//     from per-worker arenas and reused iteration buffers
//     instead of fresh shared-heap allocations.
//   - FAL (Bor-FAL): the paper's flexible adjacency list, which turns
//     compact-graph into a small sort plus O(n) pointer
//     appends and moves the filtering work into find-min.
//
// Every variant runs the same three-step iteration — find-min,
// connect-components, compact-graph — and records each step and each
// iteration's sizes as a span, which is what regenerates Table 1 and
// Fig. 2.
package boruvka

import (
	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/par"
	"pmsf/internal/sorts"
)

// Options configures a parallel Borůvka run.
type Options struct {
	// Workers is the number of parallel workers p; 0 means GOMAXPROCS.
	Workers int
	// InsertionCutoff is the list length below which the per-list sorts
	// of Bor-AL use insertion sort; 0 means sorts.InsertionCutoff.
	InsertionCutoff int
	// Seed drives sample-sort splitter selection (Bor-EL) only; results
	// are identical for any seed.
	Seed uint64
	// SortEngine selects the compact-graph engine of Bor-EL; the default
	// is the two-level radix compactor (SortParallelRadix).
	// SortSampleSort keeps the paper's original formulation for the
	// Fig. 2 row and the sort-engine ablation.
	SortEngine SortEngine
	// Trace, when non-nil, receives hierarchical spans for every
	// iteration and step: an "iteration" child of the root per round,
	// carrying n and list_size, with find-min, connect-components and
	// compact-graph children.
	Trace *obs.Collector
}

// SortEngine names a compact-graph sorting engine for the Bor-EL edge
// sort.
type SortEngine int

const (
	// SortParallelRadix is the two-level radix compactor: a parallel
	// counting sort by U, then a sort of each U segment by V (insertion
	// sort when short, LSD radix on 8-bit digits when long), and a
	// per-run (W, ID) min-reduction instead of sorting the full key.
	// The zero value, i.e. the default engine.
	SortParallelRadix SortEngine = iota
	// SortSampleSort is the Helman-JáJá parallel sample sort (the
	// paper's choice).
	SortSampleSort
)

// SortEngines lists every engine in a stable order (for benchmarks and
// flag help).
func SortEngines() []SortEngine {
	return []SortEngine{SortParallelRadix, SortSampleSort}
}

// String names the engine.
func (e SortEngine) String() string {
	switch e {
	case SortParallelRadix:
		return "parallel-radix"
	case SortSampleSort:
		return "sample-sort"
	}
	return "unknown"
}

// ParseSortEngine resolves an engine name as printed by String.
func ParseSortEngine(s string) (SortEngine, bool) {
	for _, e := range SortEngines() {
		if e.String() == s {
			return e, true
		}
	}
	return 0, false
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return par.DefaultWorkers()
	}
	return o.Workers
}

func (o Options) cutoff() int {
	if o.InsertionCutoff <= 0 {
		return sorts.InsertionCutoff
	}
	return o.InsertionCutoff
}

// obsStart opens a run's root span on opt.Trace, carrying the algorithm
// name and worker count. Both returns are nil-safe no-ops when
// observability is disabled.
func obsStart(opt Options, name string, p int) (*obs.Collector, obs.Span) {
	root := opt.Trace.Start(name, name)
	root.SetInt("workers", int64(p))
	return opt.Trace, root
}

// finish builds the Forest result from the selected edge ids, recomputing
// the weight against the original graph, and filling in the component
// count.
func finish(g *graph.EdgeList, ids []int32, components int) *graph.Forest {
	f := &graph.Forest{EdgeIDs: ids, Components: components}
	for _, id := range ids {
		f.Weight += g.Edges[id].W
	}
	return f
}
