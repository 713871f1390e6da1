// Command msf-bench regenerates the paper's evaluation artifacts: Table 1
// and Figures 2-6, plus the Section 3 cost-model comparison.
//
// Usage:
//
//	msf-bench [-exp all|table1|fig2|fig3|fig4|fig5|fig6|model]
//	          [-scale small|medium|paper] [-seed N] [-p 1,2,4,8] [-csv]
//	msf-bench -algo Bor-FAL [-trace out.json] [-json] [-scale ...]
//
// The paper's inputs are 1M-vertex graphs (-scale paper); the default
// small scale runs every experiment in seconds. Wall-clock parallel
// speedups require as many hardware cores as the largest -p entry: every
// run first prints the GOMAXPROCS, CPU count and Go version it ran
// under, and a p= column above GOMAXPROCS carries an oversubscription
// note.
//
// The -algo form runs one algorithm once with full span tracing and
// prints its per-phase report with the run's kernel counters; -trace
// additionally writes a Chrome trace-event file (load in chrome://tracing
// or Perfetto).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"pmsf"
	"pmsf/internal/bench"
	"pmsf/internal/report"
)

// algoNames renders the canonical engine list for flag help —
// pmsf.Algorithms() is the single source of truth, so a new engine
// shows up here without touching this file.
func algoNames() string {
	names := make([]string, 0, len(pmsf.Algorithms()))
	for _, a := range pmsf.Algorithms() {
		names = append(names, a.String())
	}
	return strings.Join(names, ", ")
}

// sortNames renders the compact-graph engine list for flag help.
func sortNames() string {
	names := make([]string, 0, len(pmsf.SortEngines()))
	for _, e := range pmsf.SortEngines() {
		names = append(names, e.String())
	}
	return strings.Join(names, ", ")
}

func main() {
	exp := flag.String("exp", "all", "experiment id (all, "+strings.Join(bench.ExperimentIDs(), ", ")+")")
	scaleFlag := flag.String("scale", "small", "input scale: small, medium or paper")
	seed := flag.Uint64("seed", 42, "random seed for generators and algorithms")
	workers := flag.String("p", "1,2,4,8", "comma-separated worker counts for the parallel sweeps")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	jsonFlag := flag.Bool("json", false, "emit JSON instead of aligned text")
	outDir := flag.String("o", "", "also write each table to <dir>/<table id>.{txt,csv}")
	algoFlag := flag.String("algo", "", "run one algorithm with span tracing instead of the experiment suite ("+algoNames()+")")
	traceOut := flag.String("trace", "", "with -algo: write a Chrome trace-event JSON file to this path")
	sortFlag := flag.String("sort", "", "Bor-EL compact-graph engine ("+sortNames()+"; default parallel-radix)")
	flag.Parse()

	scale, err := bench.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	ps, err := parseWorkers(*workers)
	if err != nil {
		fatal(err)
	}
	if *algoFlag != "" {
		if err := profileRun(*algoFlag, scale, *seed, ps[0], *traceOut, *jsonFlag, *sortFlag); err != nil {
			fatal(err)
		}
		return
	}
	cfg := bench.Config{Scale: scale, Seed: *seed, Workers: ps}

	ids := bench.ExperimentIDs()
	if *exp != "all" {
		if _, ok := bench.Experiments()[*exp]; !ok {
			fatal(fmt.Errorf("unknown experiment %q (want all, %s)", *exp, strings.Join(ids, ", ")))
		}
		ids = []string{*exp}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}
	// The parallelism budget the tables are measured under. Machine
	// formats keep stdout to tables alone, so there it goes to stderr.
	host := os.Stdout
	if *jsonFlag || *csv {
		host = os.Stderr
	}
	procs := runtime.GOMAXPROCS(0)
	fmt.Fprintf(host, "gomaxprocs=%d numcpu=%d %s\n\n", procs, runtime.NumCPU(), runtime.Version())
	for _, id := range ids {
		for _, table := range bench.Experiments()[id](cfg) {
			table.MarkOversubscribed(procs)
			var err error
			switch {
			case *jsonFlag:
				err = table.WriteJSON(os.Stdout)
			case *csv:
				err = table.WriteCSV(os.Stdout)
			default:
				err = table.WriteText(os.Stdout)
			}
			if err != nil {
				fatal(err)
			}
			if *outDir != "" {
				if err := saveTable(*outDir, table, *csv); err != nil {
					fatal(err)
				}
			}
		}
	}
}

// profileRun executes the -algo path: one traced run, its summary on
// stdout (text, or JSON with -json; both with the run's counters), and
// an optional Chrome trace file.
func profileRun(algo string, scale bench.Scale, seed uint64, workers int, traceOut string, jsonOut bool, sortEngine string) error {
	res, err := bench.ProfileRun(bench.ProfileConfig{
		Algo: algo, Scale: scale, Seed: seed, Workers: workers, Sort: sortEngine,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s: n=%d m=%d, forest weight %.4f, %d component(s)\n",
		res.Algorithm, res.Graph.N, len(res.Graph.Edges), res.Forest.Weight, res.Forest.Components)
	if jsonOut {
		err = res.Summary.WriteJSON(os.Stdout)
	} else {
		err = report.Summary(os.Stdout, res.Summary)
	}
	if err != nil {
		return err
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := res.Trace.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans written to %s\n", len(res.Trace.Spans()), traceOut)
	}
	return nil
}

// saveTable writes the table to <dir>/<id>.txt or .csv.
func saveTable(dir string, table *bench.Table, csv bool) error {
	ext := ".txt"
	if csv {
		ext = ".csv"
	}
	f, err := os.Create(filepath.Join(dir, table.ID+ext))
	if err != nil {
		return err
	}
	if csv {
		err = table.WriteCSV(f)
	} else {
		err = table.WriteText(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("invalid worker count %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no worker counts given")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "msf-bench:", err)
	os.Exit(1)
}
