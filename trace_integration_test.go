package pmsf_test

// Integration test of the tracing pipeline: one `msf-bench -algo` run
// must produce a Chrome trace whose per-step span totals agree exactly
// (at the report's µs rounding) with the per-iteration text table
// printed for the same run — both are views over one span tree, so any
// disagreement means the views have diverged.

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"pmsf/internal/obs"
)

func TestMSFBenchTraceMatchesReport(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "msf-bench")
	run(t, "go", "build", "-o", bin, "./cmd/msf-bench")

	tracePath := filepath.Join(dir, "out.json")
	out := run(t, bin, "-algo", "Bor-FAL", "-scale", "tiny", "-trace", tracePath)

	// Parse the report table's totals row: "total <find-min> <conn-comp> <compact>".
	var totals []time.Duration
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 4 && fields[0] == "total" {
			for _, f := range fields[1:] {
				d, err := time.ParseDuration(f)
				if err != nil {
					t.Fatalf("unparseable duration %q in totals row: %v", f, err)
				}
				totals = append(totals, d)
			}
		}
	}
	if len(totals) != 3 {
		t.Fatalf("no totals row in msf-bench output:\n%s", out)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := obs.ReadChromeTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("empty trace")
	}
	foundRoot := false
	for _, r := range spans {
		if r.Parent == 0 && r.Name == "Bor-FAL" {
			foundRoot = true
		}
	}
	if !foundRoot {
		t.Fatal("trace has no Bor-FAL root span")
	}

	// Sum the exact (dur_ns) durations per step name and compare at the
	// report's µs rounding.
	sum := func(name string) time.Duration {
		var d time.Duration
		for _, r := range spans {
			if r.Name == name {
				d += r.Dur
			}
		}
		return d
	}
	steps := []string{"find-min", "connect-components", "compact-graph"}
	for i, name := range steps {
		got := sum(name).Round(time.Microsecond)
		if got != totals[i] {
			t.Errorf("%s: trace total %v, report total %v", name, got, totals[i])
		}
	}

	// Iteration spans must tile the table's per-iteration rows: count
	// data rows (lines starting with an iteration number) and compare.
	iterSpans := 0
	for _, r := range spans {
		if r.Name == "iteration" {
			iterSpans++
		}
	}
	iterRows := 0
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 6 {
			continue
		}
		if _, err := strconv.Atoi(fields[0]); err == nil {
			iterRows++
		}
	}
	if iterSpans == 0 || iterSpans != iterRows {
		t.Errorf("%d iteration spans vs %d table rows", iterSpans, iterRows)
	}
}

func TestMSFBenchMetricsSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "msf-bench")
	run(t, "go", "build", "-o", bin, "./cmd/msf-bench")

	out := run(t, bin, "-algo", "MST-BC", "-scale", "tiny")
	for _, want := range []string{"edges_retired", "par_phases", "sort_elements", "supervertices"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics summary missing %q:\n%s", want, out)
		}
	}
}
