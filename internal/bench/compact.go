package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"pmsf/internal/boruvka"
	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/obs"
)

// The compact-graph engine study: CompactWorkList throughput of the
// sample sort and the packed-key parallel radix compactor, across worker
// counts and duplicate-run skew levels.
// This is the PR's perf trajectory baseline; msf-bench -benchjson writes
// the machine-readable form to results/BENCH_PR2.json.

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

// CompactBenchEntry is one engine × workers × workload measurement.
// GoMaxProcs and NumCPU record the runtime's actual parallelism budget
// at measurement time, so a result file can never again silently claim
// p-worker scaling measured on a one-slot scheduler (the BENCH_PR2.json
// artifact): benchguard rejects files whose workers exceed them.
type CompactBenchEntry struct {
	Engine     string `json:"engine"`
	Workers    int    `json:"workers"`
	Workload   string `json:"workload"`
	N          int    `json:"n"`
	Elements   int    `json:"elements"`
	NsPerOp    int64  `json:"ns_per_op"`
	GoMaxProcs int    `json:"gomaxprocs,omitempty"`
	NumCPU     int    `json:"numcpu,omitempty"`
}

// CompactBenchReport is the machine-readable artifact of the engine
// study (results/BENCH_PR2.json, and with the MSF engine matrix rows
// attached, results/BENCH_PR6.json).
type CompactBenchReport struct {
	Scale      string              `json:"scale"`
	Seed       uint64              `json:"seed"`
	GoMaxProcs int                 `json:"gomaxprocs"`
	NumCPU     int                 `json:"numcpu,omitempty"`
	Baseline   string              `json:"baseline_engine"`
	Candidate  string              `json:"candidate_engine"`
	Entries    []CompactBenchEntry `json:"entries"`
	// EngineBaseline names the MSF engine the matrix rows are judged
	// against (Bor-EL); Engines holds the end-to-end engine matrix.
	// Both are absent from reports written before the matrix existed.
	EngineBaseline string             `json:"engine_baseline,omitempty"`
	Engines        []EngineBenchEntry `json:"engines,omitempty"`
}

// WriteJSON writes the report as indented JSON.
func (r *CompactBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
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

// CompactBench runs the full engine study and returns the
// machine-readable report.
func CompactBench(cfg Config) *CompactBenchReport {
	rep := &CompactBenchReport{
		Scale:      cfg.Scale.String(),
		Seed:       cfg.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Baseline:   boruvka.SortSampleSort.String(),
		Candidate:  boruvka.SortParallelRadix.String(),
	}
	reps := 3
	if cfg.Scale >= Paper {
		reps = 1
	}
	for _, w := range compactWorkloads() {
		edges, n := buildCompactInput(cfg.Scale, cfg.Seed, w)
		for _, engine := range boruvka.SortEngines() {
			for _, p := range cfg.workers() {
				d := timeCompact(engine, p, edges, n, cfg.Seed, reps)
				rep.Entries = append(rep.Entries, CompactBenchEntry{
					Engine:     engine.String(),
					Workers:    p,
					Workload:   w.name,
					N:          n,
					Elements:   len(edges),
					NsPerOp:    d.Nanoseconds(),
					GoMaxProcs: runtime.GOMAXPROCS(0),
					NumCPU:     runtime.NumCPU(),
				})
			}
		}
	}
	return rep
}

// CompactScalingBench is the scaling-focused slice of the engine study:
// only the packed-key parallel radix compactor, only the uniform
// workload, across cfg's worker counts. It is what the benchguard
// -scaling gate runs fresh in CI to enforce that p = 4 beats p = 1 on
// the 2.4M-element compaction.
func CompactScalingBench(cfg Config) *CompactBenchReport {
	rep := &CompactBenchReport{
		Scale:      cfg.Scale.String(),
		Seed:       cfg.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Baseline:   boruvka.SortParallelRadix.String(),
		Candidate:  boruvka.SortParallelRadix.String(),
	}
	reps := 3
	if cfg.Scale >= Paper {
		reps = 1
	}
	w := compactWorkloads()[0] // uniform
	edges, n := buildCompactInput(cfg.Scale, cfg.Seed, w)
	for _, p := range cfg.workers() {
		d := timeCompact(boruvka.SortParallelRadix, p, edges, n, cfg.Seed, reps)
		rep.Entries = append(rep.Entries, CompactBenchEntry{
			Engine:     boruvka.SortParallelRadix.String(),
			Workers:    p,
			Workload:   w.name,
			N:          n,
			Elements:   len(edges),
			NsPerOp:    d.Nanoseconds(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		})
	}
	return rep
}

// CompactExp renders the engine study as experiment tables (one per
// workload), with a speedup column of the packed-key parallel radix
// compactor over the sample-sort baseline at equal p.
func CompactExp(cfg Config) []*Table {
	rep := CompactBench(cfg)
	byWorkload := map[string][]CompactBenchEntry{}
	for _, e := range rep.Entries {
		byWorkload[e.Workload] = append(byWorkload[e.Workload], e)
	}
	var out []*Table
	for _, w := range compactWorkloads() {
		entries := byWorkload[w.name]
		if len(entries) == 0 {
			continue
		}
		t := &Table{
			ID: "compact." + w.name,
			Title: fmt.Sprintf("compact-graph engines, %s n=%d elements=%d (ms)",
				w.name, entries[0].N, entries[0].Elements),
			Header: []string{"engine"},
		}
		ps := cfg.workers()
		for _, p := range ps {
			t.Header = append(t.Header, fmt.Sprintf("p=%d", p))
		}
		base := map[int]int64{}
		for _, e := range entries {
			if e.Engine == rep.Baseline {
				base[e.Workers] = e.NsPerOp
			}
		}
		for _, engine := range boruvka.SortEngines() {
			row := []string{engine.String()}
			for _, p := range ps {
				for _, e := range entries {
					if e.Engine == engine.String() && e.Workers == p {
						row = append(row, ms(time.Duration(e.NsPerOp)))
					}
				}
			}
			t.Rows = append(t.Rows, row)
		}
		// Speedup note: candidate vs baseline at the largest p.
		pMax := ps[len(ps)-1]
		var cand int64
		for _, e := range entries {
			if e.Engine == rep.Candidate && e.Workers == pMax {
				cand = e.NsPerOp
			}
		}
		if cand > 0 && base[pMax] > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("%s is %.2fx the %s baseline at p=%d",
				rep.Candidate, float64(base[pMax])/float64(cand), rep.Baseline, pMax))
		}
		out = append(out, t)
	}
	return out
}
