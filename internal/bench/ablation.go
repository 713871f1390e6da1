package bench

import (
	"fmt"

	"pmsf/internal/boruvka"
	"pmsf/internal/cc"
	"pmsf/internal/gen"
	"pmsf/internal/mstbc"
	"pmsf/internal/obs"
	"pmsf/internal/seq"
)

// CCBench times the connected-components implementations — the paper's
// named follow-on problem — across input families: Shiloach-Vishkin
// hooking+jumping vs the lock-free union-find.
func CCBench(cfg Config) []*Table {
	workloads := append([]Workload{RandomWorkload(4)}, MeshWorkloads()...)
	t := &Table{
		ID:     "ccbench",
		Title:  "connected components: Shiloach-Vishkin vs lock-free union-find (ms)",
		Header: []string{"graph", "n", "m", "components", "SV", "UnionFind"},
	}
	for _, w := range workloads {
		g := w.Make(cfg.Scale, cfg.Seed)
		var k int
		dSV := timeIt(func() { _, k = cc.SV(g, 0) })
		dUF := timeIt(func() { cc.UnionFind(g, 0) })
		t.Rows = append(t.Rows, []string{
			w.Name,
			fmt.Sprintf("%d", g.N), fmt.Sprintf("%d", len(g.Edges)),
			fmt.Sprintf("%d", k),
			ms(dSV), ms(dUF),
		})
	}
	return []*Table{t}
}

// WeightsExp reproduces the paper's Fig. 3 observation that "different
// assignment of edge weights is also important": the sequential
// algorithm ranking on a FIXED graph structure changes when only the
// weight distribution changes. All parallel algorithms stay correct
// under every distribution (the conformance tests cover that); this
// experiment shows the performance sensitivity.
func WeightsExp(cfg Config) []*Table {
	n := cfg.Scale.BaseN()
	base := gen.Random(n, 6*n, cfg.Seed)
	t := &Table{
		ID:     "weights",
		Title:  fmt.Sprintf("sequential ranking vs weight distribution, random n=%d m=%d (ms)", n, 6*n),
		Header: []string{"weights", "Prim", "Kruskal", "Boruvka", "Bor-FAL(par)", "best seq"},
	}
	for _, d := range gen.WeightDists() {
		g := gen.Reweight(base, d, cfg.Seed+uint64(d))
		best, _, times := BestSequential(g)
		dFAL := timeIt(func() { boruvka.FAL(g, boruvka.Options{Seed: cfg.Seed}) })
		t.Rows = append(t.Rows, []string{
			d.String(),
			ms(times["Prim"]), ms(times["Kruskal"]), ms(times["Boruvka"]),
			ms(dFAL),
			best,
		})
	}
	t.Notes = append(t.Notes,
		"the winner column moving across distributions on one fixed graph reproduces the paper's claim that weight assignment, not just density, decides the sequential ranking")
	return []*Table{t}
}

// Hybrid demonstrates MST-BC's defining property (Section 4.1: "when run
// on one processor the algorithm behaves as Prim's, and on n processors
// becomes Borůvka's"): as p grows, the first parallel level grows more,
// smaller trees, with rising collision counts — the Prim → Borůvka
// continuum.
func Hybrid(cfg Config) []*Table {
	n := cfg.Scale.BaseN()
	g := gen.Random(n, 6*n, cfg.Seed)
	t := &Table{
		ID:    "hybrid",
		Title: fmt.Sprintf("MST-BC level-1 behaviour vs p, random n=%d m=%d", n, 6*n),
		Header: []string{
			"p", "trees", "avg tree size", "visited%", "collisions", "steals", "levels",
		},
	}
	for _, p := range []int{1, 2, 4, 8, 16, 64, 256} {
		if p > n {
			continue
		}
		s := traced(func(tr *obs.Collector) { mstbc.Run(g, mstbc.Options{Workers: p, Seed: cfg.Seed, Trace: tr}) })
		if len(s.Rounds) == 0 {
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", p), "0", "-", "-", "-", "-", "0"})
			continue
		}
		lv := s.Rounds[0]
		trees, visited := lv.Arg("trees"), lv.Arg("visited")
		avg := "-"
		if trees > 0 {
			avg = fmt.Sprintf("%.1f", float64(visited)/float64(trees))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p),
			fmt.Sprintf("%d", trees),
			avg,
			fmt.Sprintf("%.1f%%", 100*float64(visited)/float64(lv.Arg("n"))),
			fmt.Sprintf("%d", lv.Arg("collisions")),
			fmt.Sprintf("%d", lv.Arg("steals")),
			fmt.Sprintf("%d", len(s.Rounds)),
		})
	}
	t.Notes = append(t.Notes,
		"p=1: one tree per component spanning ~100% of vertices (pure Prim); growing p: more, smaller trees with collisions (towards Borůvka)")
	return []*Table{t}
}

// Ablation runs the design-choice studies DESIGN.md enumerates (A1-A5
// plus the Kruskal sort comparison) and reports one table per ablation.
// The same studies are available as stable testing.B benchmarks at the
// repository root; this experiment renders them as harness tables.
func Ablation(cfg Config) []*Table {
	n := cfg.Scale.BaseN()
	g := gen.Random(n, 6*n, cfg.Seed)
	var out []*Table

	// A1: Bor-AL insertion-sort cutoff.
	t1 := &Table{
		ID:     "ablation.sort-cutoff",
		Title:  fmt.Sprintf("A1: Bor-AL insertion-sort cutoff, random n=%d m=%d (ms)", n, 6*n),
		Header: []string{"cutoff", "time"},
	}
	for _, cutoff := range []int{2, 8, 32, 128, 1 << 20} {
		d := timeIt(func() {
			boruvka.AL(g, boruvka.Options{InsertionCutoff: cutoff, Seed: cfg.Seed})
		})
		label := fmt.Sprintf("%d", cutoff)
		if cutoff == 1<<20 {
			label = "∞ (pure insertion)"
		}
		t1.Rows = append(t1.Rows, []string{label, ms(d)})
	}
	out = append(out, t1)

	// A2: arena vs heap (Bor-AL vs Bor-ALM).
	t2 := &Table{
		ID:     "ablation.arena",
		Title:  "A2: shared-heap allocation (Bor-AL) vs per-worker reuse (Bor-ALM) (ms)",
		Header: []string{"memory policy", "time"},
	}
	dAL := timeIt(func() { boruvka.AL(g, boruvka.Options{Seed: cfg.Seed}) })
	dALM := timeIt(func() { boruvka.ALM(g, boruvka.Options{Seed: cfg.Seed}) })
	t2.Rows = append(t2.Rows,
		[]string{"heap (Bor-AL)", ms(dAL)},
		[]string{"arena (Bor-ALM)", ms(dALM)})
	out = append(out, t2)

	// A3: MST-BC claim-order permutation.
	t3 := &Table{
		ID:     "ablation.permutation",
		Title:  "A3: MST-BC claim order (ms)",
		Header: []string{"order", "time"},
	}
	for _, noPerm := range []bool{false, true} {
		name := "random permutation"
		if noPerm {
			name = "natural order"
		}
		d := timeIt(func() {
			mstbc.Run(g, mstbc.Options{NoPermute: noPerm, Seed: cfg.Seed})
		})
		t3.Rows = append(t3.Rows, []string{name, ms(d)})
	}
	t3.Notes = append(t3.Notes, "the permutation buys the progress guarantee; cost should be small")
	out = append(out, t3)

	// A4: MST-BC base size.
	t4 := &Table{
		ID:     "ablation.base-size",
		Title:  "A4: MST-BC base-case cutoff n_b (ms)",
		Header: []string{"n_b", "time"},
	}
	for _, nb := range []int{16, 256, 4096, 1 << 16} {
		d := timeIt(func() {
			mstbc.Run(g, mstbc.Options{BaseSize: nb, Seed: cfg.Seed})
		})
		t4.Rows = append(t4.Rows, []string{fmt.Sprintf("%d", nb), ms(d)})
	}
	out = append(out, t4)

	// Kruskal's edge sort (Section 5.2 engineering comparison).
	t5 := &Table{
		ID:     "ablation.kruskal-sort",
		Title:  "Kruskal edge sort comparison (ms)",
		Header: []string{"sort", "time"},
	}
	for _, es := range seq.EdgeSorts() {
		d := timeIt(func() { seq.KruskalWithSort(g, es) })
		t5.Rows = append(t5.Rows, []string{es.String(), ms(d)})
	}
	dFK := timeIt(func() { seq.FilterKruskal(g) })
	t5.Rows = append(t5.Rows, []string{"filter-kruskal", ms(dFK)})
	t5.Notes = append(t5.Notes,
		"filter-kruskal (Osipov-Sanders-Singler) is the modern cycle-property successor; it avoids sorting most edges")
	out = append(out, t5)

	return out
}
