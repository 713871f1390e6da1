// Package pmsf computes minimum spanning forests of sparse graphs on
// shared-memory multiprocessors. It is a faithful reproduction of the
// algorithms of Bader and Cong, "Fast Shared-Memory Algorithms for
// Computing the Minimum Spanning Forest of Sparse Graphs" (IPDPS 2004):
// four parallel Borůvka variants distinguished by their graph
// representation and compact-graph strategy (Bor-EL, Bor-AL, Bor-ALM,
// Bor-FAL), the paper's new hybrid of concurrent Prim instances with
// Borůvka contraction (MST-BC), and the three sequential baselines the
// paper measures against (Prim, Kruskal, Borůvka).
//
// Quick start:
//
//	g := pmsf.RandomGraph(100_000, 500_000, 42)
//	forest, _, err := pmsf.MinimumSpanningForest(g, pmsf.MSTBC, pmsf.Options{})
//	if err != nil { ... }
//	fmt.Println(forest.Weight, forest.Components)
//
// If the input is disconnected the result is the minimum spanning forest:
// an MST of every connected component.
package pmsf

import (
	"fmt"
	"strings"

	"pmsf/internal/boruvka"
	"pmsf/internal/cashook"
	"pmsf/internal/dynmsf"
	"pmsf/internal/filter"
	"pmsf/internal/graph"
	"pmsf/internal/mstbc"
	"pmsf/internal/obs"
	"pmsf/internal/seq"
	"pmsf/internal/verify"
	"pmsf/internal/writemin"
)

// Edge is one undirected edge: endpoints in [0, N) and a weight.
type Edge = graph.Edge

// Graph is an undirected graph given as N vertices and an edge list.
// Self-loops and parallel edges are tolerated.
type Graph = graph.EdgeList

// Forest is a minimum spanning forest: the indices of the selected edges
// in the input edge list, the total weight, and the component count.
type Forest = graph.Forest

// BoruvkaStats is the per-iteration instrumentation of the Borůvka
// variants (find-min / connect-components / compact-graph times and the
// working-list sizes that regenerate Table 1 and Fig. 2 of the paper).
type BoruvkaStats = boruvka.Stats

// MSTBCStats is the per-level instrumentation of the MST-BC algorithm.
type MSTBCStats = mstbc.Stats

// FilterStats is the instrumentation of the sampling filter (sample
// size, discarded edge count, inner MSF stats).
type FilterStats = filter.Stats

// Trace collects the hierarchical spans of one run: every Borůvka
// iteration and step, MST-BC level and phase, filter stage, and shared
// sort kernel. Export with WriteChromeTrace (chrome://tracing /
// Perfetto) or Summarize (machine-readable totals). A nil *Trace
// disables collection at zero cost.
type Trace = obs.Collector

// NewTrace returns an empty trace collector to pass in Options.Trace.
func NewTrace() *Trace { return obs.NewCollector() }

// TraceSummary is the machine-readable roll-up of a traced run: phase
// totals and counter values.
type TraceSummary = obs.Summary

// MetricsRegistry is the expvar-compatible registry of process-wide
// counters and gauges.
type MetricsRegistry = obs.Registry

// Metrics returns the process-wide metrics registry (edges retired,
// steal attempts, sort comparisons, arena bytes, ...). Counting is off
// unless a run had Options.Metrics set or EnableMetrics was called.
func Metrics() *MetricsRegistry { return obs.Default() }

// EnableMetrics switches process-wide metric counting on or off. It is
// also switched on for the duration of any run whose Options.Metrics is
// set.
func EnableMetrics(on bool) { obs.EnableMetrics(on) }

// Algorithm selects an MSF implementation.
type Algorithm int

const (
	// BorEL is parallel Borůvka on an edge list; compact-graph is the
	// packed-key parallel radix compactor by default, or the paper's one
	// global parallel sample sort with Options.SortEngine =
	// SortSampleSort.
	BorEL Algorithm = iota
	// BorAL is parallel Borůvka on adjacency arrays; compact-graph is a
	// two-level sort (vertices by supervertex, then each adjacency list).
	BorAL
	// BorALM is Bor-AL with private per-worker memory management in
	// place of shared-heap allocation.
	BorALM
	// BorFAL is parallel Borůvka on the paper's flexible adjacency list;
	// compact-graph degenerates to pointer appends and find-min filters
	// stale edges through a lookup table.
	BorFAL
	// MSTBC is the paper's new algorithm: p coordinated Prim instances
	// growing disjoint subtrees, plus Borůvka contraction and recursion.
	MSTBC
	// Filter is the sampling-based edge-elimination extension the paper's
	// Section 3 motivates (Cole-Klein-Tarjan / Katriel-Sanders-Träff
	// cycle-property filtering): sample edges, build the sample's MSF
	// with Bor-FAL, discard F-heavy edges via parallel path-maximum
	// queries, and finish on the (expected O(n)-edge) remainder.
	Filter
	// BorCAS is the lock-free CAS-hook engine (GBBS nd.h style): one
	// setup sort by (weight, id), then equal-weight buckets processed in
	// increasing order, every edge of a bucket racing through the
	// concurrent union-find's CAS-hook protocol. No round loop over the
	// graph at all.
	BorCAS
	// BorWM is the write-min filter-Borůvka engine (parlaylib style):
	// find-min is a concurrent CAS write-min race on per-vertex packed
	// (rank, index) keys, and compact-graph degenerates to a relabel plus
	// self-edge filter — no sort and no duplicate merge inside the round
	// loop.
	BorWM
	// SeqPrim is sequential Prim's algorithm with a binary heap.
	SeqPrim
	// SeqKruskal is sequential Kruskal's algorithm with a non-recursive
	// merge sort.
	SeqKruskal
	// SeqBoruvka is the sequential m log n Borůvka baseline.
	SeqBoruvka
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case BorEL:
		return "Bor-EL"
	case BorAL:
		return "Bor-AL"
	case BorALM:
		return "Bor-ALM"
	case BorFAL:
		return "Bor-FAL"
	case MSTBC:
		return "MST-BC"
	case Filter:
		return "Filter"
	case BorCAS:
		return "Bor-CAS"
	case BorWM:
		return "Bor-WM"
	case SeqPrim:
		return "Prim"
	case SeqKruskal:
		return "Kruskal"
	case SeqBoruvka:
		return "Boruvka"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Algorithms lists every implementation, parallel first.
func Algorithms() []Algorithm {
	return []Algorithm{BorEL, BorAL, BorALM, BorFAL, MSTBC, Filter, BorCAS, BorWM, SeqPrim, SeqKruskal, SeqBoruvka}
}

// ParallelAlgorithms lists the eight parallel implementations.
func ParallelAlgorithms() []Algorithm {
	return []Algorithm{BorEL, BorAL, BorALM, BorFAL, MSTBC, Filter, BorCAS, BorWM}
}

// Parallel reports whether the algorithm uses multiple workers.
func (a Algorithm) Parallel() bool { return a <= BorWM }

// ParseAlgorithm resolves a paper-style name ("Bor-FAL", case
// insensitive, '-' optional) to an Algorithm.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if strings.EqualFold(name, a.String()) || strings.EqualFold(name, stripDash(a.String())) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("pmsf: unknown algorithm %q", name)
}

// SortEngine selects Bor-EL's compact-graph engine.
type SortEngine = boruvka.SortEngine

const (
	// SortParallelRadix is the packed-key parallel radix compactor — the
	// default: (U, V) packed into one uint64, per-worker histogram
	// counting-sort passes with the digit width derived from the current
	// supervertex count, and a per-run (W, ID) min-reduction.
	SortParallelRadix = boruvka.SortParallelRadix
	// SortSampleSort is the paper's Helman-JáJá parallel sample sort.
	SortSampleSort = boruvka.SortSampleSort
)

// SortEngines lists every Bor-EL compact-graph engine in a stable order.
func SortEngines() []SortEngine { return boruvka.SortEngines() }

// ParseSortEngine resolves an engine name as printed by its String
// method ("parallel-radix", "sample-sort").
func ParseSortEngine(name string) (SortEngine, error) {
	e, ok := boruvka.ParseSortEngine(name)
	if !ok {
		return 0, fmt.Errorf("pmsf: unknown sort engine %q", name)
	}
	return e, nil
}

func stripDash(s string) string {
	return strings.ReplaceAll(s, "-", "")
}

// Options configures a run. The zero value is a sensible default: all
// available processors, default sequential cutoff, no instrumentation.
type Options struct {
	// Workers is the number of parallel workers p; 0 means GOMAXPROCS.
	// Sequential algorithms ignore it.
	Workers int
	// BaseSize is MST-BC's sequential cutoff n_b; 0 means the default.
	BaseSize int
	// Seed drives the randomized components: the sample-sort splitters
	// of Bor-EL's SortSampleSort engine and of Bor-CAS's setup sort,
	// MST-BC's claim-order permutation and work-stealing victim order,
	// and the Filter's sampling. The forest produced is a correct MSF
	// for every seed.
	Seed uint64
	// CollectStats enables per-iteration instrumentation, returned in
	// Stats.
	CollectStats bool
	// Trace, when non-nil, collects hierarchical spans for the run
	// (iterations, steps, levels, sort kernels) for export as a Chrome
	// trace or JSON summary. Implies the same instrumentation
	// CollectStats produces.
	Trace *Trace
	// Metrics enables the process-wide counters (see Metrics()) for the
	// duration of the run.
	Metrics bool
	// SortEngine selects Bor-EL's compact-graph engine; the zero value is
	// the packed-key parallel radix compactor. Other algorithms ignore it.
	SortEngine SortEngine
}

// CASHookStats is the instrumentation of the Bor-CAS engine (bucket
// counts and phase wall times).
type CASHookStats = cashook.Stats

// Stats carries optional instrumentation; at most one field is non-nil,
// matching the algorithm family that ran. Bor-WM reports through Boruvka:
// it shares the round-loop step schema.
type Stats struct {
	Boruvka *BoruvkaStats
	MSTBC   *MSTBCStats
	Filter  *FilterStats
	CASHook *CASHookStats
}

// MinimumSpanningForest computes the MSF of g with the chosen algorithm.
// It validates the input graph and returns an error for malformed inputs
// or unknown algorithms.
func MinimumSpanningForest(g *Graph, algo Algorithm, opt Options) (*Forest, *Stats, error) {
	if g == nil {
		return nil, nil, fmt.Errorf("pmsf: nil graph")
	}
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	stats := &Stats{}
	if opt.Metrics && !obs.MetricsOn() {
		obs.EnableMetrics(true)
		defer obs.EnableMetrics(false)
	}
	bopt := boruvka.Options{
		Workers: opt.Workers, Stats: opt.CollectStats, Seed: opt.Seed,
		Trace: opt.Trace, SortEngine: opt.SortEngine,
	}
	switch algo {
	case BorEL:
		f, s := boruvka.EL(g, bopt)
		stats.Boruvka = s
		return f, stats, nil
	case BorAL:
		f, s := boruvka.AL(g, bopt)
		stats.Boruvka = s
		return f, stats, nil
	case BorALM:
		f, s := boruvka.ALM(g, bopt)
		stats.Boruvka = s
		return f, stats, nil
	case BorFAL:
		f, s := boruvka.FAL(g, bopt)
		stats.Boruvka = s
		return f, stats, nil
	case MSTBC:
		f, s := mstbc.Run(g, mstbc.Options{
			Workers: opt.Workers, BaseSize: opt.BaseSize,
			Seed: opt.Seed, Stats: opt.CollectStats, Trace: opt.Trace,
		})
		stats.MSTBC = s
		return f, stats, nil
	case Filter:
		f, s := filter.Run(g, filter.Options{
			Workers: opt.Workers, Seed: opt.Seed, Stats: opt.CollectStats, Trace: opt.Trace,
		})
		stats.Filter = s
		return f, stats, nil
	case BorCAS:
		f, s := cashook.Run(g, cashook.Options{
			Workers: opt.Workers, Stats: opt.CollectStats, Seed: opt.Seed, Trace: opt.Trace,
		})
		stats.CASHook = s
		return f, stats, nil
	case BorWM:
		f, s := writemin.Run(g, writemin.Options{
			Workers: opt.Workers, Stats: opt.CollectStats, Seed: opt.Seed, Trace: opt.Trace,
		})
		stats.Boruvka = s
		return f, stats, nil
	case SeqPrim:
		return seq.Prim(g), stats, nil
	case SeqKruskal:
		return seq.Kruskal(g), stats, nil
	case SeqBoruvka:
		return seq.Boruvka(g), stats, nil
	}
	return nil, nil, fmt.Errorf("pmsf: unknown algorithm %v", algo)
}

// Verify checks that f is a valid minimum spanning forest of g by
// structural validation plus comparison against an independently computed
// reference. Intended for tests and example programs; it costs a full
// sequential MSF computation.
func Verify(g *Graph, f *Forest) error {
	return verify.Full(g, f)
}

// NewGraph constructs a graph from an edge slice. The slice is used
// directly (not copied).
func NewGraph(n int, edges []Edge) *Graph {
	return &Graph{N: n, Edges: edges}
}

// Dynamic is a handle that maintains the minimum spanning forest of a
// graph across batches of edge insertions and deletions (see
// internal/dynmsf for the algorithm: cycle-rule insertions over an
// incrementally rebuilt path-maximum index, replacement-edge search for
// deletions, and a scoped-recompute fallback when a batch invalidates
// too much of a tree). All methods are safe for concurrent use; queries
// block while a batch is being applied.
type Dynamic = dynmsf.Handle

// DynamicDelta reports what one ApplyEdges batch changed.
type DynamicDelta = dynmsf.Delta

// DynamicOptions tunes the dynamic maintainer's fallback thresholds and
// tracing. The zero value is the default.
type DynamicOptions = dynmsf.Options

// ErrDynamicBroken is wrapped by every error a Dynamic handle returns
// after an internal invariant failure has made it unusable; callers
// should discard the handle and rebuild with NewDynamic.
var ErrDynamicBroken = dynmsf.ErrBroken

// NewDynamic computes the MSF of g with the chosen algorithm and
// returns a handle that keeps it minimal under batched edge updates:
//
//	dyn, err := pmsf.NewDynamic(g, pmsf.BorEL, pmsf.Options{})
//	delta, err := dyn.ApplyEdges(adds, dels)
//	live, forest := dyn.SnapshotWithForest()
//
// The handle copies g's edge list; the caller's graph is not mutated.
// opt configures the initial computation; opt.Trace (if any) also
// receives one span per subsequent ApplyEdges batch.
func NewDynamic(g *Graph, algo Algorithm, opt Options) (*Dynamic, error) {
	f, _, err := MinimumSpanningForest(g, algo, opt)
	if err != nil {
		return nil, err
	}
	return dynmsf.New(g, f, dynmsf.Options{Trace: opt.Trace})
}
