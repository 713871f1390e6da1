// Package boruvka implements the paper's four parallel Borůvka variants
// for shared memory (Section 2):
//
//   - EL  (Bor-EL):  edge-list representation, compact-graph by a global
//     sort of the edge list: the packed-key parallel radix
//     compactor by default, or the paper's parallel sample
//     sort (SortSampleSort).
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
	// is the packed-key parallel radix compactor (SortParallelRadix).
	// SortSampleSort keeps the paper's original formulation for the
	// Fig. 2 row and the sort-engine ablation.
	SortEngine SortEngine
	// Trace, when non-nil, receives hierarchical spans for every
	// iteration and step: an "iteration" child of the root per round,
	// carrying n and list_size, with find-min, connect-components and
	// compact-graph children.
	Trace *obs.Collector
	// Parent, when live, nests the run's spans under an enclosing span
	// (e.g. the sampling filter's inner MSF phases); it implies the
	// parent's collector and overrides Trace.
	Parent obs.Span
}

// SortEngine names a compact-graph sorting engine for the Bor-EL edge
// sort.
type SortEngine int

const (
	// SortParallelRadix is the packed-key parallel radix compactor: the
	// (U, V) pair packed into one uint64, parallel per-worker histogram
	// counting-sort passes with the digit width chosen from the current
	// supervertex count, and a per-run (W, ID) min-reduction instead of
	// sorting the full key. The zero value, i.e. the default engine.
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

// obsStart resolves the span sink of a run: an explicit Parent span
// wins over opt.Trace. The returned root span carries the algorithm name
// and worker count. Both returns are nil-safe no-ops when observability
// is disabled.
func obsStart(opt Options, name string, p int) (*obs.Collector, obs.Span) {
	c := opt.Trace
	if opt.Parent.Live() {
		c = opt.Parent.Collector()
	}
	root := obs.StartUnder(c, opt.Parent, name, name)
	root.SetInt("workers", int64(p))
	return c, root
}

// retire reports working-list entries eliminated by a compaction to the
// process-wide metrics.
func retire(n int64) {
	if n > 0 && obs.MetricsOn() {
		obs.EdgesRetired.Add(n)
	}
}

// contracted reports the post-contraction supervertex count to the
// process-wide metrics.
func contracted(k int) {
	if obs.MetricsOn() {
		obs.Supervertices.Set(int64(k))
	}
}

// boolArg renders a bool as a 0/1 span attribute.
//
//msf:noalloc
func boolArg(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// harvest appends to ids the edge selected by each supervertex that found
// an outgoing minimum edge, deduplicating the mutual-pair case (when u
// and v select the same edge, the smaller endpoint owns it). parent must
// be the raw chosen-neighbor array BEFORE connected components resolves
// it. It returns the extended slice.
func harvest(p int, parent, sel []int32, ids []int32) []int32 {
	picked := par.PackIndices(p, len(parent), func(v int) bool {
		pv := parent[v]
		if int(pv) == v {
			return false
		}
		// Mutual pair: both endpoints chose the same undirected edge; the
		// smaller id owns it.
		if int(parent[pv]) == v && int(pv) < v {
			return false
		}
		return true
	})
	for _, v := range picked {
		ids = append(ids, sel[v])
	}
	return ids
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
