package report

import (
	"bytes"
	"strings"
	"testing"

	"pmsf/internal/boruvka"
	"pmsf/internal/filter"
	"pmsf/internal/gen"
	"pmsf/internal/mstbc"
	"pmsf/internal/obs"
)

// render writes the summary of the spans run records and returns the
// summary and the text.
func render(t *testing.T, run func(*obs.Collector)) (*obs.Summary, string) {
	t.Helper()
	c := obs.NewCollector()
	run(c)
	s := c.Summarize(nil)
	var buf bytes.Buffer
	if err := Summary(&buf, s); err != nil {
		t.Fatal(err)
	}
	return s, buf.String()
}

func wantAll(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestBoruvkaReport(t *testing.T) {
	g := gen.Random(1000, 5000, 1)
	s, out := render(t, func(c *obs.Collector) { boruvka.FAL(g, boruvka.Options{Trace: c}) })
	wantAll(t, out, "Bor-FAL", "iterations", "list_size", "find-min", "total")
	// Title, header, one line per iteration and the totals row, then one
	// line per arg and per span name.
	want := 3 + len(s.Rounds) + len(s.Args) + len(s.PhaseTotalNS)
	if lines := strings.Count(out, "\n"); lines != want {
		t.Errorf("report has %d lines, want %d:\n%s", lines, want, out)
	}
}

func TestMSTBCReport(t *testing.T) {
	g := gen.Random(2000, 8000, 2)
	_, out := render(t, func(c *obs.Collector) {
		mstbc.Run(g, mstbc.Options{Workers: 4, BaseSize: 64, Trace: c})
	})
	wantAll(t, out, "MST-BC", "levels", "collisions", "trees", "grow", "MST-BC.workers")
}

func TestMSTBCReportNoLevels(t *testing.T) {
	g := gen.Random(100, 300, 3)
	_, out := render(t, func(c *obs.Collector) {
		mstbc.Run(g, mstbc.Options{Workers: 2, BaseSize: 1 << 20, Trace: c})
	})
	wantAll(t, out, "MST-BC, p=2, ", "seq-base.m")
	if strings.Contains(out, "level") || strings.Contains(out, "total") {
		t.Errorf("expected no level table:\n%s", out)
	}
}

func TestFilterReport(t *testing.T) {
	g := gen.Random(1000, 20000, 4)
	_, out := render(t, func(c *obs.Collector) { filter.Run(g, filter.Options{Trace: c}) })
	wantAll(t, out, "Filter.m", "sample.sampled", "filter.discarded", "final-msf.m")
}
