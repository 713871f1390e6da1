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
// connect-components, compact-graph — and can record per-step wall time
// and per-iteration sizes, which is what regenerates Table 1 and Fig. 2.
package boruvka

import (
	"time"

	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/par"
	"pmsf/internal/sorts"
)

// Options configures a parallel Borůvka run.
type Options struct {
	// Workers is the number of parallel workers p; 0 means GOMAXPROCS.
	Workers int
	// Stats enables per-iteration instrumentation.
	Stats bool
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
	// iteration and step. The returned Stats derive from the same span
	// tree, so both views of one run agree exactly.
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

// StepTimes records wall time per Borůvka step.
type StepTimes struct {
	FindMin           time.Duration
	ConnectComponents time.Duration
	CompactGraph      time.Duration
}

// Add accumulates other into s.
func (s *StepTimes) Add(other StepTimes) {
	s.FindMin += other.FindMin
	s.ConnectComponents += other.ConnectComponents
	s.CompactGraph += other.CompactGraph
}

// Total returns the summed step time.
func (s StepTimes) Total() time.Duration {
	return s.FindMin + s.ConnectComponents + s.CompactGraph
}

// IterStats describes one Borůvka iteration.
type IterStats struct {
	// N is the number of supervertices at the start of the iteration.
	N int
	// ListSize is the size of the working edge structure at the start of
	// the iteration: directed edge-list entries for Bor-EL (the "2m"
	// column of Table 1), total adjacency entries for Bor-AL/ALM, and
	// total chained arcs (including not-yet-filtered self-loops and
	// multi-edges) for Bor-FAL.
	ListSize int64
	Steps    StepTimes
}

// Stats is the instrumentation record of a run.
type Stats struct {
	Algorithm string
	Workers   int
	Iters     []IterStats
	Total     StepTimes
}

// obsStart resolves the span sink of a run: an explicit Parent span
// wins, then opt.Trace; when neither is set but Stats were requested, a
// private collector backs the Stats view. The returned root span carries
// the algorithm name and worker count. Both returns are nil-safe no-ops
// when observability is fully disabled.
func obsStart(opt Options, name string, p int) (*obs.Collector, obs.Span) {
	c := opt.Trace
	if opt.Parent.Live() {
		c = opt.Parent.Collector()
	}
	if c == nil && opt.Stats {
		c = obs.NewCollector()
	}
	root := obs.StartUnder(c, opt.Parent, name, name)
	root.SetInt("workers", int64(p))
	return c, root
}

// statsView materializes the Stats of a run as a view over its span
// tree: one IterStats per "iteration" child of root, sizes from the span
// args, step times from the step child spans. When collect is false only
// the identity fields are filled, matching the pre-span contract.
func statsView(c *obs.Collector, root obs.Span, name string, p int, collect bool) *Stats {
	stats := &Stats{Algorithm: name, Workers: p}
	if !collect || c == nil {
		return stats
	}
	spans := c.Spans()
	for _, r := range spans {
		if r.Parent != root.ID() || r.Name != "iteration" {
			continue
		}
		var it IterStats
		if v, ok := r.Arg("n"); ok {
			it.N = int(v)
		}
		if v, ok := r.Arg("list_size"); ok {
			it.ListSize = v
		}
		for _, step := range obs.ChildrenOf(spans, r.ID) {
			switch step.Name {
			case "find-min":
				it.Steps.FindMin = step.Dur
			case "connect-components":
				it.Steps.ConnectComponents = step.Dur
			case "compact-graph":
				it.Steps.CompactGraph = step.Dur
			}
		}
		stats.Iters = append(stats.Iters, it)
		stats.Total.Add(it.Steps)
	}
	return stats
}

// StatsView materializes a Stats view over the span tree recorded by any
// engine that follows this package's span schema — "iteration" children
// of root carrying n/list_size args with find-min, connect-components and
// compact-graph step children. Exported for engines outside this package
// (internal/writemin) that reuse the Borůvka Stats shape so reporting and
// benching treat them uniformly.
func StatsView(c *obs.Collector, root obs.Span, name string, p int, collect bool) *Stats {
	return statsView(c, root, name, p, collect)
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
