// Command msf computes the minimum spanning forest of a graph file and
// prints the forest weight, edge count and component count.
//
// Usage:
//
//	msf -algo Bor-FAL -p 8 [-verify] [-stats] [-format binary|text|dimacs] graph.pmsf
//
// Algorithms: Bor-EL, Bor-AL, Bor-ALM, Bor-FAL, MST-BC, Prim, Kruskal,
// Boruvka. Input defaults to the binary format written by graphgen.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pmsf"
	"pmsf/internal/graph"
	"pmsf/internal/report"
)

func main() {
	algoName := flag.String("algo", "MST-BC", "algorithm name")
	workers := flag.Int("p", 0, "parallel workers (0 = GOMAXPROCS)")
	seed := flag.Uint64("seed", 42, "seed for randomized components")
	verifyFlag := flag.Bool("verify", false, "verify the result against a sequential reference")
	statsFlag := flag.Bool("stats", false, "trace the run and print its per-round and per-phase summary")
	formatName := flag.String("format", "binary", "input format: binary, text, dimacs or metis")
	outPath := flag.String("o", "", "write the forest (edge ids) to this file")
	flag.Parse()

	if flag.NArg() != 1 {
		fatal(fmt.Errorf("want exactly one input file, got %d args", flag.NArg()))
	}
	algo, err := pmsf.ParseAlgorithm(*algoName)
	if err != nil {
		fatal(err)
	}

	format, err := graph.ParseFormat(*formatName)
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	g, err := format.Read(f)
	if err != nil {
		fatal(err)
	}

	opt := pmsf.Options{Workers: *workers, Seed: *seed}
	if *statsFlag {
		opt.Trace = pmsf.NewTrace()
	}
	start := time.Now()
	forest, stats, err := pmsf.MinimumSpanningForest(g, algo, opt)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("algorithm:  %s\n", algo)
	fmt.Printf("graph:      n=%d m=%d\n", g.N, len(g.Edges))
	fmt.Printf("forest:     %d edges, %d components\n", forest.Size(), forest.Components)
	fmt.Printf("weight:     %.6f\n", forest.Weight)
	fmt.Printf("time:       %v\n", elapsed)

	printStats(stats)
	if *outPath != "" {
		of, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		if err := graph.WriteForest(of, forest); err != nil {
			fatal(err)
		}
		if err := of.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("forest out:  %s\n", *outPath)
	}
	if *verifyFlag {
		if err := pmsf.Verify(g, forest); err != nil {
			fatal(err)
		}
		fmt.Println("verify:     OK (matches reference MSF)")
	}
}

// printStats writes the run's summary to stdout. It prints nothing
// without one, or for a sequential algorithm, which records no spans.
func printStats(stats *pmsf.Stats) {
	if stats == nil || stats.SpanCount == 0 {
		return
	}
	if err := report.Summary(os.Stdout, stats); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "msf:", err)
	os.Exit(1)
}
