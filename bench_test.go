package pmsf

// One testing.B benchmark per table and figure of the paper's evaluation,
// plus ablation benches for the design choices DESIGN.md calls out. The
// experiment harness (cmd/msf-bench) regenerates the full artifacts; the
// benches here are the stable, profileable entry points for each of them.
//
// Inputs are cached per size so graph generation is excluded from timing.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"pmsf/internal/boruvka"
	"pmsf/internal/cc"
	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/mstbc"
	"pmsf/internal/obs"
	"pmsf/internal/seq"
)

const benchN = 10_000 // vertex count of the benchmark inputs

var (
	graphCacheMu sync.Mutex
	graphCache   = map[string]*graph.EdgeList{}
)

func cachedGraph(name string, make func() *graph.EdgeList) *graph.EdgeList {
	graphCacheMu.Lock()
	defer graphCacheMu.Unlock()
	g, ok := graphCache[name]
	if !ok {
		g = make()
		graphCache[name] = g
	}
	return g
}

func randomGraph(ratio int) *graph.EdgeList {
	return cachedGraph(fmt.Sprintf("random-%dx", ratio), func() *graph.EdgeList {
		return gen.Random(benchN, ratio*benchN, 42)
	})
}

func meshGraph(name string) *graph.EdgeList {
	return cachedGraph(name, func() *graph.EdgeList {
		switch name {
		case "mesh":
			side := 100
			return gen.Mesh2D(side, side, 42)
		case "geometric-k6":
			return gen.Geometric(benchN, 6, 42)
		case "2D60":
			return gen.Mesh2D60(100, 100, 42)
		default: // 3D40
			return gen.Mesh3D40(22, 42)
		}
	})
}

func strGraph(name string) *graph.EdgeList {
	return cachedGraph(name, func() *graph.EdgeList {
		switch name {
		case "str0":
			return gen.Str0(benchN, 42)
		case "str1":
			return gen.Str1(benchN, 42)
		case "str2":
			return gen.Str2(benchN, 42)
		default:
			return gen.Str3(benchN, 42)
		}
	})
}

type parVariant struct {
	name string
	run  func(*graph.EdgeList, int) *graph.Forest
}

func parVariants() []parVariant {
	return []parVariant{
		{"Bor-EL", func(g *graph.EdgeList, p int) *graph.Forest {
			return boruvka.EL(g, boruvka.Options{Workers: p, Seed: 1})
		}},
		{"Bor-AL", func(g *graph.EdgeList, p int) *graph.Forest {
			return boruvka.AL(g, boruvka.Options{Workers: p, Seed: 1})
		}},
		{"Bor-ALM", func(g *graph.EdgeList, p int) *graph.Forest {
			return boruvka.ALM(g, boruvka.Options{Workers: p, Seed: 1})
		}},
		{"Bor-FAL", func(g *graph.EdgeList, p int) *graph.Forest {
			return boruvka.FAL(g, boruvka.Options{Workers: p, Seed: 1})
		}},
		{"MST-BC", func(g *graph.EdgeList, p int) *graph.Forest {
			return mstbc.Run(g, mstbc.Options{Workers: p, Seed: 1})
		}},
	}
}

// BenchmarkTable1EdgeDecay regenerates Table 1's measurement: a full
// instrumented Bor-EL run on the G1-class random graph (n, 6n).
func BenchmarkTable1EdgeDecay(b *testing.B) {
	g := randomGraph(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := obs.NewCollector()
		boruvka.EL(g, boruvka.Options{Trace: tr, Seed: 1})
		if len(tr.Summarize(nil).Rounds) == 0 {
			b.Fatal("no iterations recorded")
		}
	}
}

// BenchmarkFig2StepBreakdown times each Borůvka variant on the Fig. 2
// inputs (random graphs with m = 4n, 6n, 10n); per-step attribution comes
// from `msf-bench -exp fig2`.
func BenchmarkFig2StepBreakdown(b *testing.B) {
	for _, ratio := range []int{4, 6, 10} {
		g := randomGraph(ratio)
		for _, v := range parVariants()[:4] {
			b.Run(fmt.Sprintf("%s/m=%dx", v.name, ratio), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					v.run(g, 0)
				}
			})
		}
	}
}

// BenchmarkFig3Sequential ranks the sequential baselines across graph
// families (Fig. 3).
func BenchmarkFig3Sequential(b *testing.B) {
	inputs := map[string]*graph.EdgeList{
		"random-6x": randomGraph(6),
		"mesh":      meshGraph("mesh"),
		"geometric": meshGraph("geometric-k6"),
		"str0":      strGraph("str0"),
	}
	algos := []struct {
		name string
		run  func(*graph.EdgeList) *graph.Forest
	}{
		{"Prim", seq.Prim},
		{"Kruskal", seq.Kruskal},
		{"Boruvka", seq.Boruvka},
	}
	for gname, g := range inputs {
		for _, a := range algos {
			b.Run(fmt.Sprintf("%s/%s", a.name, gname), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a.run(g)
				}
			})
		}
	}
}

// BenchmarkFig4Random sweeps the parallel algorithms over the Fig. 4
// random graphs (m = 4n, 6n, 10n, 20n) and worker counts.
func BenchmarkFig4Random(b *testing.B) {
	for _, ratio := range []int{4, 6, 10, 20} {
		g := randomGraph(ratio)
		for _, v := range parVariants() {
			for _, p := range []int{1, 4} {
				b.Run(fmt.Sprintf("m=%dx/%s/p=%d", ratio, v.name, p), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						v.run(g, p)
					}
				})
			}
		}
	}
}

// BenchmarkFig5Mesh sweeps the parallel algorithms over the Fig. 5 mesh
// and geometric inputs.
func BenchmarkFig5Mesh(b *testing.B) {
	for _, name := range []string{"mesh", "geometric-k6", "2D60", "3D40"} {
		g := meshGraph(name)
		for _, v := range parVariants() {
			for _, p := range []int{1, 4} {
				b.Run(fmt.Sprintf("%s/%s/p=%d", name, v.name, p), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						v.run(g, p)
					}
				})
			}
		}
	}
}

// BenchmarkFig6Structured sweeps the parallel algorithms over the Fig. 6
// structured worst cases str0-str3.
func BenchmarkFig6Structured(b *testing.B) {
	for _, name := range []string{"str0", "str1", "str2", "str3"} {
		g := strGraph(name)
		for _, v := range parVariants() {
			for _, p := range []int{1, 4} {
				b.Run(fmt.Sprintf("%s/%s/p=%d", name, v.name, p), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						v.run(g, p)
					}
				})
			}
		}
	}
}

// BenchmarkAblationSortCutoff varies Bor-AL's insertion-sort cutoff (A1):
// the paper's profiling argument that most per-vertex lists are short and
// insertion sort should handle them.
func BenchmarkAblationSortCutoff(b *testing.B) {
	g := randomGraph(6)
	for _, cutoff := range []int{2, 8, 32, 128, 1 << 20} {
		b.Run(fmt.Sprintf("cutoff=%d", cutoff), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				boruvka.AL(g, boruvka.Options{InsertionCutoff: cutoff, Seed: 1})
			}
		})
	}
}

// BenchmarkAblationArena compares Bor-AL's shared-heap allocation against
// Bor-ALM's reused per-worker buffers (A2); -benchmem shows the
// allocation gap that models the paper's malloc-contention fix.
func BenchmarkAblationArena(b *testing.B) {
	g := randomGraph(6)
	b.Run("heap/Bor-AL", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			boruvka.AL(g, boruvka.Options{Seed: 1})
		}
	})
	b.Run("arena/Bor-ALM", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			boruvka.ALM(g, boruvka.Options{Seed: 1})
		}
	})
}

// BenchmarkAblationPermutation toggles MST-BC's randomized claim order
// (A3), the paper's progress guarantee.
func BenchmarkAblationPermutation(b *testing.B) {
	g := randomGraph(6)
	for _, noPerm := range []bool{false, true} {
		name := "permuted"
		if noPerm {
			name = "natural-order"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mstbc.Run(g, mstbc.Options{Workers: 4, NoPermute: noPerm, Seed: 1})
			}
		})
	}
}

// BenchmarkAblationKruskalSort reproduces the paper's Section 5.2
// engineering comparison: Kruskal with a non-recursive merge sort (the
// paper's pick) against recursive merge sort, quicksort and the stdlib
// sort.
func BenchmarkAblationKruskalSort(b *testing.B) {
	g := randomGraph(10)
	for _, es := range seq.EdgeSorts() {
		b.Run(es.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seq.KruskalWithSort(g, es)
			}
		})
	}
	b.Run("filter-kruskal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq.FilterKruskal(g)
		}
	})
}

// BenchmarkAblationPrimHeap compares Prim over the binary heap against
// the pairing heap (the Moret-Shapiro priority-queue comparison behind
// the paper's choice of sequential baseline).
func BenchmarkAblationPrimHeap(b *testing.B) {
	g := randomGraph(6)
	for _, pq := range seq.PrimPQs() {
		b.Run(pq.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seq.PrimWithHeap(g, pq)
			}
		})
	}
}

// BenchmarkConnectedComponents times the follow-on connected-components
// algorithms built on the same substrate.
func BenchmarkConnectedComponents(b *testing.B) {
	g := randomGraph(6)
	b.Run("SV", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cc.SV(g, 0)
		}
	})
	b.Run("UnionFind", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cc.UnionFind(g, 0)
		}
	})
}

// BenchmarkAblationBaseSize varies MST-BC's sequential cutoff n_b (A4).
func BenchmarkAblationBaseSize(b *testing.B) {
	g := randomGraph(6)
	for _, nb := range []int{16, 256, 4096, 1 << 16} {
		b.Run(fmt.Sprintf("nb=%d", nb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mstbc.Run(g, mstbc.Options{Workers: 4, BaseSize: nb, Seed: 1})
			}
		})
	}
}

// BenchmarkAblationELSortEngine runs Bor-EL end to end under each
// compact-graph engine (the compact-graph step dominates its time, so
// this isolates the Helman-JáJá sample sort against the two-level
// compactor in situ).
func BenchmarkAblationELSortEngine(b *testing.B) {
	g := randomGraph(6)
	for _, engine := range boruvka.SortEngines() {
		b.Run(engine.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				boruvka.EL(g, boruvka.Options{SortEngine: engine, Seed: 1})
			}
		})
	}
}

// BenchmarkEngineMatrix runs the lock-free engine (Bor-CAS) against
// the Bor-EL reference, end to end through the public API,
// across low-diameter and tie-heavy families. CI runs it once under
// -race as a smoke test; perfbench's static-random workload is where
// Bor-EL's and Bor-CAS's speed is gated.
func BenchmarkEngineMatrix(b *testing.B) {
	families := []struct {
		name string
		g    *graph.EdgeList
	}{
		{"random-6x", randomGraph(6)},
		{"random-6x-ties", cachedGraph("random-6x-ties", func() *graph.EdgeList {
			return gen.Reweight(gen.Random(benchN, 6*benchN, 42), gen.WeightsSmallInts, 43)
		})},
		{"star", cachedGraph("star", func() *graph.EdgeList { return gen.Star(benchN, 42) })},
		{"mesh", meshGraph("mesh")},
	}
	for _, fam := range families {
		for _, algo := range []Algorithm{BorEL, BorCAS} {
			for _, p := range []int{1, 4, 8} {
				b.Run(fmt.Sprintf("%s/%v/p=%d", fam.name, algo, p), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, _, err := MinimumSpanningForest(fam.g, algo, Options{
							Workers: p, Seed: 1,
						}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkObsOverhead measures the observability tax on Bor-EL: the
// disabled path (nil collector, metrics off) must match the
// uninstrumented implementation within noise, while the traced run shows
// what full span collection costs. Allocation reporting pins the
// disabled path at zero obs-attributable allocations beyond the
// algorithm's own.
func BenchmarkObsOverhead(b *testing.B) {
	g := randomGraph(6)
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			boruvka.EL(g, boruvka.Options{Seed: 1})
		}
	})
	b.Run("traced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := obs.NewCollector()
			boruvka.EL(g, boruvka.Options{Seed: 1, Trace: c})
			if len(c.Spans()) == 0 {
				b.Fatal("no spans recorded")
			}
		}
	})
}

// BenchmarkCompactGraphEngines measures the compact-graph kernel in
// isolation: one CompactWorkList call per iteration, across the sample
// sort and the two-level compactor, at several worker counts and
// duplicate-run skew levels. skew=c folds the vertex space by c,
// simulating a late Borůvka round where each supervertex pair carries
// many parallel edges — the regime the (W, ID) min-reduction targets.
func BenchmarkCompactGraphEngines(b *testing.B) {
	base := randomGraph(6)
	for _, skew := range []int{1, 16, 256} {
		edges := graph.DirectedWorkList(base)
		n := base.N
		if skew > 1 {
			n = base.N / skew
			for i := range edges {
				edges[i].U %= int32(n)
				edges[i].V %= int32(n)
			}
		}
		for _, engine := range boruvka.SortEngines() {
			for _, p := range []int{1, 4, 8} {
				b.Run(fmt.Sprintf("skew=%d/%s/p=%d", skew, engine, p), func(b *testing.B) {
					work := make([]graph.WEdge, len(edges))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						copy(work, edges)
						b.StartTimer()
						boruvka.CompactWorkList(engine, p, work, n, 1)
					}
				})
			}
		}
	}
}

// BenchmarkCompactScaling is the p-scaling view of the two-level
// compactor alone: the same uniform working list at p = 1, 2, 4, with
// the runtime's actual parallelism budget reported per entry so a run
// on a starved scheduler is visible in the output
// (gomaxprocs/numcpu metrics) rather than masquerading as a scaling
// measurement. CI gates p-scaling with perfbench's end-to-end
// engine.<e>.scaling and with Bor-EL's compact-graph phase timed alone
// through msf-bench -algo, both at p = 1 and 2.
func BenchmarkCompactScaling(b *testing.B) {
	base := randomGraph(6)
	edges := graph.DirectedWorkList(base)
	n := base.N
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			work := make([]graph.WEdge, len(edges))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(work, edges)
				b.StartTimer()
				boruvka.CompactWorkList(boruvka.SortParallelRadix, p, work, n, 1)
			}
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			b.ReportMetric(float64(runtime.NumCPU()), "numcpu")
		})
	}
}
