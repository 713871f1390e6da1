// Command msf-verify checks a saved forest against its graph: structural
// spanning-forest validity, then its sorted edge weights compared
// exactly with those of an independently computed Kruskal MSF. Exit
// status 0 means the forest is a minimum spanning forest of the graph.
//
// Usage:
//
//	msf-verify [-format binary|text|dimacs|metis] [-algo ENGINE] [-p N] graph.pmsf forest.txt
//
// With -algo, the forest is additionally cross-checked against a fresh
// run of the named engine (any algorithm from the library's catalog):
// the recomputed forest must match in size, component count, and total
// weight.
//
// With -replay, the second argument is a mutation stream (graphgen
// -mutations emits one) instead of a forest:
//
//	msf-verify -replay [-format ...] graph.pmsf stream.txt
//
// The stream is applied batch by batch through the dynamic-MSF
// subsystem, and after EVERY batch the maintained forest is checked
// against a from-scratch sequential Kruskal of the mutated graph —
// matching size, component count, and total weight (relative weight
// tolerance 1e-9, since summation orders differ). Exit status 0 means
// the dynamic forest stayed a minimum spanning forest through the whole
// stream.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"pmsf"
)

// algoNames renders the canonical engine list for flag help —
// pmsf.Algorithms() is the single source of truth.
func algoNames() string {
	names := make([]string, 0, len(pmsf.Algorithms()))
	for _, a := range pmsf.Algorithms() {
		names = append(names, a.String())
	}
	return strings.Join(names, ", ")
}

func main() {
	formatName := flag.String("format", "binary", "graph format: binary, text, dimacs or metis")
	algoFlag := flag.String("algo", "", "also cross-check against a fresh run of this engine ("+algoNames()+")")
	workers := flag.Int("p", 1, "with -algo: worker count for the cross-check run")
	replay := flag.Bool("replay", false, "treat the second argument as a mutation stream and verify the dynamic MSF after every batch")
	flag.Parse()
	if flag.NArg() != 2 {
		fatal(fmt.Errorf("want <graph file> <%s file>, got %d args", secondArg(*replay), flag.NArg()))
	}

	format, err := pmsf.ParseGraphFormat(*formatName)
	if err != nil {
		fatal(err)
	}
	g, err := pmsf.ReadGraphFile(flag.Arg(0), format)
	if err != nil {
		fatal(err)
	}
	if *replay {
		if err := replayStream(g, flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	ff, err := os.Open(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	forest, err := pmsf.ReadForest(ff)
	ff.Close()
	if err != nil {
		fatal(err)
	}

	if err := pmsf.Verify(g, forest); err != nil {
		fatal(err)
	}
	fmt.Printf("OK: %d-edge forest over n=%d m=%d, weight %.6f, %d components — verified minimum\n",
		forest.Size(), g.N, len(g.Edges), forest.Weight, forest.Components)

	if *algoFlag != "" {
		if err := crossCheck(g, forest, *algoFlag, *workers); err != nil {
			fatal(err)
		}
	}
}

// crossCheck recomputes the MSF with the named engine and compares it
// to the saved forest. Weights are compared with a relative tolerance:
// engines sum edge weights in different orders, so the floating-point
// totals can differ in the last bits.
func crossCheck(g *pmsf.Graph, forest *pmsf.Forest, name string, workers int) error {
	algo, err := pmsf.ParseAlgorithm(name)
	if err != nil {
		return fmt.Errorf("%v (want one of %s)", err, algoNames())
	}
	ref, _, err := pmsf.MinimumSpanningForest(g, algo, pmsf.Options{Workers: workers})
	if err != nil {
		return err
	}
	if ref.Size() != forest.Size() {
		return fmt.Errorf("%s cross-check: forest size %d, %s computed %d", algo, forest.Size(), algo, ref.Size())
	}
	if ref.Components != forest.Components {
		return fmt.Errorf("%s cross-check: %d components, %s computed %d", algo, forest.Components, algo, ref.Components)
	}
	tol := 1e-9 * math.Max(1, math.Abs(ref.Weight))
	if d := ref.Weight - forest.Weight; d > tol || d < -tol {
		return fmt.Errorf("%s cross-check: weight %.9f, %s computed %.9f", algo, forest.Weight, algo, ref.Weight)
	}
	fmt.Printf("OK: %s agrees (size %d, %d components, weight %.6f)\n",
		algo, ref.Size(), ref.Components, ref.Weight)
	return nil
}

func secondArg(replay bool) string {
	if replay {
		return "stream"
	}
	return "forest"
}

// replayStream applies the mutation stream through the dynamic-MSF
// subsystem and verifies the maintained forest against a from-scratch
// sequential Kruskal after every batch.
func replayStream(g *pmsf.Graph, path string) error {
	s, err := pmsf.ReadEdgeStreamFile(path)
	if err != nil {
		return err
	}
	if s.N != g.N {
		return fmt.Errorf("replay: stream is for n=%d, graph has n=%d", s.N, g.N)
	}
	dyn, err := pmsf.NewDynamic(g, pmsf.SeqKruskal, pmsf.Options{})
	if err != nil {
		return err
	}
	for i, b := range s.Batches {
		d, err := dyn.ApplyEdges(b.Add, b.Del)
		if err != nil {
			return fmt.Errorf("replay: batch %d/%d: %w", i+1, len(s.Batches), err)
		}
		snap, forest := dyn.SnapshotWithForest()
		if err := pmsf.Verify(snap, forest); err != nil {
			return fmt.Errorf("replay: batch %d/%d: maintained forest: %w", i+1, len(s.Batches), err)
		}
		ref, _, err := pmsf.MinimumSpanningForest(snap, pmsf.SeqKruskal, pmsf.Options{})
		if err != nil {
			return fmt.Errorf("replay: batch %d/%d: reference recompute: %w", i+1, len(s.Batches), err)
		}
		if ref.Size() != forest.Size() || ref.Components != forest.Components {
			return fmt.Errorf("replay: batch %d/%d: dynamic forest size %d/%d comps, scratch Kruskal %d/%d",
				i+1, len(s.Batches), forest.Size(), forest.Components, ref.Size(), ref.Components)
		}
		tol := 1e-9 * math.Max(1, math.Abs(ref.Weight))
		if diff := ref.Weight - forest.Weight; diff > tol || diff < -tol {
			return fmt.Errorf("replay: batch %d/%d: dynamic weight %.12f, scratch Kruskal %.12f",
				i+1, len(s.Batches), forest.Weight, ref.Weight)
		}
		fmt.Printf("batch %d/%d OK: +%d -%d, m=%d, weight %.6f, %d components (delta: %d links, %d swaps, %d replacements, %d splits)\n",
			i+1, len(s.Batches), len(b.Add), len(b.Del), len(snap.Edges),
			forest.Weight, forest.Components, d.Links, d.Swaps, d.Replacements, d.Splits)
	}
	fmt.Printf("OK: replayed %d batches (%d mutations) — dynamic forest matched scratch Kruskal after every batch\n",
		len(s.Batches), s.Mutations())
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "msf-verify:", err)
	os.Exit(1)
}
