package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"pmsf"
)

// stdout runs fn with os.Stdout redirected and returns what it printed.
func stdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r) // a read error shows up as missing output
		out <- string(b)
	}()
	fn()
	os.Stdout = saved
	w.Close()
	return <-out
}

// Every parallel algorithm's -stats run prints a report naming it;
// sequential algorithms and missing stats print nothing.
func TestPrintStats(t *testing.T) {
	g := pmsf.RandomGraph(200, 800, 1)
	for _, algo := range pmsf.ParallelAlgorithms() {
		_, stats, err := pmsf.MinimumSpanningForest(g, algo, pmsf.Options{Trace: pmsf.NewTrace()})
		if err != nil {
			t.Fatal(err)
		}
		if out := stdout(t, func() { printStats(stats) }); !strings.Contains(out, algo.String()) {
			t.Errorf("%v: -stats report %q does not name the algorithm", algo, out)
		}
	}
	_, stats, err := pmsf.MinimumSpanningForest(g, pmsf.SeqPrim, pmsf.Options{Trace: pmsf.NewTrace()})
	if err != nil {
		t.Fatal(err)
	}
	if out := stdout(t, func() { printStats(stats); printStats(nil) }); out != "" {
		t.Errorf("sequential run printed %q", out)
	}
}
