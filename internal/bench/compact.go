package bench

import (
	"fmt"
	"time"

	"pmsf/internal/boruvka"
	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/obs"
)

// The compact-graph engine study: CompactWorkList throughput of the
// sample sort and the packed-key parallel radix compactor, across worker
// counts and duplicate-run skew levels. msf-bench -exp compact renders
// it; README's compaction table comes from it.

// compactWorkload is one input to the engine study: a directed working
// list and the supervertex count it is compacted against. contraction
// simulates a late Borůvka round by folding the vertex space, which
// piles up duplicate (U, V) runs exactly like real contraction does.
type compactWorkload struct {
	name        string
	contraction int // 1 = first round; c > 1 folds ids into n/c supervertices
}

func compactWorkloads() []compactWorkload {
	return []compactWorkload{
		{"uniform", 1},
		{"contract-16x", 16},
		{"contract-256x", 256},
	}
}

// buildCompactInput materializes the working list of one workload.
func buildCompactInput(scale Scale, seed uint64, w compactWorkload) ([]graph.WEdge, int) {
	n := scale.BaseN()
	g := gen.Random(n, 6*n, seed)
	edges := graph.DirectedWorkList(g)
	if w.contraction > 1 {
		k := n / w.contraction
		if k < 2 {
			k = 2
		}
		for i := range edges {
			edges[i].U %= int32(k)
			edges[i].V %= int32(k)
		}
		n = k
	}
	return edges, n
}

// timeCompact measures one CompactWorkList configuration: best of
// reps runs, each on a fresh copy of the input (the compaction mutates
// its input list).
func timeCompact(engine boruvka.SortEngine, p int, edges []graph.WEdge, n int, seed uint64, reps int) time.Duration {
	work := make([]graph.WEdge, len(edges))
	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		copy(work, edges)
		d := timeIt(func() {
			boruvka.CompactWorkList(engine, p, work, n, seed, obs.Span{})
		})
		if r == 0 || d < best {
			best = d
		}
	}
	return best
}

// CompactExp runs the engine study and renders it as experiment tables
// (one per workload), with a note giving the speedup of the packed-key
// parallel radix compactor over the sample-sort baseline at the largest
// p.
func CompactExp(cfg Config) []*Table {
	const baseline, candidate = boruvka.SortSampleSort, boruvka.SortParallelRadix
	reps := 3
	if cfg.Scale >= Paper {
		reps = 1
	}
	ps := cfg.workers()
	pMax := ps[0]
	for _, p := range ps {
		pMax = max(pMax, p)
	}
	var out []*Table
	for _, w := range compactWorkloads() {
		edges, n := buildCompactInput(cfg.Scale, cfg.Seed, w)
		t := &Table{
			ID: "compact." + w.name,
			Title: fmt.Sprintf("compact-graph engines, %s n=%d elements=%d (ms)",
				w.name, n, len(edges)),
			Header: []string{"engine"},
		}
		for _, p := range ps {
			t.Header = append(t.Header, fmt.Sprintf("p=%d", p))
		}
		atMax := map[boruvka.SortEngine]time.Duration{}
		for _, engine := range boruvka.SortEngines() {
			row := []string{engine.String()}
			for _, p := range ps {
				d := timeCompact(engine, p, edges, n, cfg.Seed, reps)
				row = append(row, ms(d))
				if p == pMax {
					atMax[engine] = d
				}
			}
			t.Rows = append(t.Rows, row)
		}
		if atMax[candidate] > 0 && atMax[baseline] > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("%s is %.2fx the %s baseline at p=%d",
				candidate, float64(atMax[baseline])/float64(atMax[candidate]), baseline, pMax))
		}
		out = append(out, t)
	}
	return out
}
