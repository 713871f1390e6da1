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

// Trace collects the hierarchical spans of one run: every Borůvka
// iteration and step, MST-BC level and phase, filter stage, and shared
// sort kernel. Export with WriteChromeTrace (chrome://tracing /
// Perfetto) or Summarize (the Stats roll-up). A nil *Trace disables
// collection at zero cost.
type Trace = obs.Collector

// NewTrace returns an empty trace collector to pass in Options.Trace.
func NewTrace() *Trace { return obs.NewCollector() }

// Stats is the roll-up of a traced run's span tree: per-name span counts
// and phase totals, the args of the top-level phases (Bor-CAS's
// hook.buckets, the filter's sample.sampled and filter.discarded,
// MST-BC's seq-base.n, ...), and one Round per Borůvka iteration or
// MST-BC level with its args (n, list_size; n, m, trees, collisions,
// steals, visited) and step times — the numbers behind Table 1 and
// Fig. 2 of the paper. Summarize a Trace to get one, optionally with a
// counter snapshot.
type Stats = obs.Summary

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
	// Trace, when non-nil, collects hierarchical spans for the run
	// (iterations, steps, levels, sort kernels) for export as a Chrome
	// trace or JSON summary; MinimumSpanningForest also returns their
	// Stats roll-up.
	Trace *Trace
	// Metrics enables the process-wide counters (see Metrics()) for the
	// duration of the run.
	Metrics bool
	// SortEngine selects Bor-EL's compact-graph engine; the zero value is
	// the packed-key parallel radix compactor. Other algorithms ignore it.
	SortEngine SortEngine
}

// MinimumSpanningForest computes the MSF of g with the chosen algorithm.
// It validates the input graph and returns an error for malformed inputs
// or unknown algorithms. The Stats are opt.Trace's roll-up after the run
// (nil when opt.Trace is nil).
func MinimumSpanningForest(g *Graph, algo Algorithm, opt Options) (*Forest, *Stats, error) {
	if g == nil {
		return nil, nil, fmt.Errorf("pmsf: nil graph")
	}
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	if opt.Metrics && !obs.MetricsOn() {
		obs.EnableMetrics(true)
		defer obs.EnableMetrics(false)
	}
	f, err := run(g, algo, opt)
	if err != nil || opt.Trace == nil {
		return f, nil, err
	}
	return f, opt.Trace.Summarize(nil), nil
}

// run dispatches to the algorithm's engine.
func run(g *Graph, algo Algorithm, opt Options) (*Forest, error) {
	bopt := boruvka.Options{
		Workers: opt.Workers, Seed: opt.Seed, Trace: opt.Trace, SortEngine: opt.SortEngine,
	}
	switch algo {
	case BorEL:
		return boruvka.EL(g, bopt), nil
	case BorAL:
		return boruvka.AL(g, bopt), nil
	case BorALM:
		return boruvka.ALM(g, bopt), nil
	case BorFAL:
		return boruvka.FAL(g, bopt), nil
	case MSTBC:
		return mstbc.Run(g, mstbc.Options{
			Workers: opt.Workers, BaseSize: opt.BaseSize, Seed: opt.Seed, Trace: opt.Trace,
		}), nil
	case Filter:
		return filter.Run(g, filter.Options{Workers: opt.Workers, Seed: opt.Seed, Trace: opt.Trace}), nil
	case BorCAS:
		return cashook.Run(g, cashook.Options{Workers: opt.Workers, Seed: opt.Seed, Trace: opt.Trace}), nil
	case BorWM:
		return writemin.Run(g, writemin.Options{Workers: opt.Workers, Seed: opt.Seed, Trace: opt.Trace}), nil
	case SeqPrim:
		return seq.Prim(g), nil
	case SeqKruskal:
		return seq.Kruskal(g), nil
	case SeqBoruvka:
		return seq.Boruvka(g), nil
	}
	return nil, fmt.Errorf("pmsf: unknown algorithm %v", algo)
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
// internal/dynmsf for the algorithm: the forest lives in a link-cut
// tree, an insertion is one path-maximum query plus at most one cut and
// one link, and a deleted tree edge is replaced by the lightest edge
// leaving the smaller side of its cut). All methods are safe for
// concurrent use; queries block while a batch is being applied.
type Dynamic = dynmsf.Handle

// DynamicDelta reports what one ApplyEdges batch changed. Its Rebuilds
// and FallbackRecomputes fields are always 0.
type DynamicDelta = dynmsf.Delta

// DynamicOptions configures the dynamic maintainer's tracing. The zero
// value is the default.
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
