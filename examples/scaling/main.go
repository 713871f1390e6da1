// Scaling: a self-contained scaling study using only the public API —
// the experiment a user runs first on their own hardware. It sweeps the
// worker count for every parallel algorithm on one random sparse graph,
// reports wall times, speedup against the best sequential baseline, and
// the per-step attribution that explains WHERE the time goes (the
// paper's Fig. 2 lens applied to your machine).
//
// On a single-core host the sweep is flat (there is nothing to scale
// onto); on an 8-core machine the same binary reproduces the paper's
// Fig. 4 curves.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"pmsf"
)

func main() {
	const n, ratio = 100_000, 6
	g := pmsf.RandomGraphParallel(n, ratio*n, 42, 0)
	fmt.Printf("graph: random n=%d m=%d; GOMAXPROCS=%d\n\n", g.N, len(g.Edges), runtime.GOMAXPROCS(0))

	// Best sequential baseline.
	bestSeq, bestName := time.Duration(0), ""
	for _, algo := range []pmsf.Algorithm{pmsf.SeqPrim, pmsf.SeqKruskal, pmsf.SeqBoruvka} {
		d := timeRun(g, algo, 0)
		fmt.Printf("%-9s (sequential)  %8.1f ms\n", algo, ms(d))
		if bestName == "" || d < bestSeq {
			bestSeq, bestName = d, algo.String()
		}
	}
	fmt.Printf("\nbest sequential: %s (%.1f ms)\n\n", bestName, ms(bestSeq))

	ps := []int{1, 2, 4, 8}
	fmt.Printf("%-9s", "algo")
	for _, p := range ps {
		fmt.Printf("  p=%-2d (ms)", p)
	}
	fmt.Printf("  speedup(p=%d)\n", ps[len(ps)-1])
	for _, algo := range pmsf.ParallelAlgorithms() {
		fmt.Printf("%-9s", algo)
		var last time.Duration
		for _, p := range ps {
			last = timeRun(g, algo, p)
			fmt.Printf("  %9.1f", ms(last))
		}
		fmt.Printf("  %.2f\n", float64(bestSeq)/float64(last))
	}

	// Per-step attribution for the representation the paper recommends
	// on random graphs.
	_, s, err := pmsf.MinimumSpanningForest(g, pmsf.BorFAL, pmsf.Options{Trace: pmsf.NewTrace()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nBor-FAL step attribution over %d iterations: find-min %.1f ms, connect %.1f ms, compact %.1f ms\n",
		len(s.Rounds), ms(s.PhaseTotal("find-min")), ms(s.PhaseTotal("connect-components")), ms(s.PhaseTotal("compact-graph")))
}

func timeRun(g *pmsf.Graph, algo pmsf.Algorithm, p int) time.Duration {
	start := time.Now()
	if _, _, err := pmsf.MinimumSpanningForest(g, algo, pmsf.Options{Workers: p, Seed: 1}); err != nil {
		log.Fatal(err)
	}
	return time.Since(start)
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
