package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmsf/internal/analysis/checker"
	"pmsf/internal/analysis/load"
	"pmsf/internal/analysis/suite"
)

// TestRepoClean is the smoke test the CI gate relies on: the whole
// module must come back diagnostic-free from every analyzer (the exact
// work `msf-lint ./...` does).
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go tool")
	}
	pkgs, err := load.Load("", "pmsf/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	diags, err := checker.Run(pkgs, suite.All())
	if err != nil {
		t.Fatalf("checker: %v", err)
	}
	for _, d := range diags {
		t.Errorf("repo is not lint-clean: %s", d)
	}
}

// TestBrokenInvariantReported pins the other half of the contract:
// deliberately breaking an invariant (a plain read of a slice marked
// "// accessed atomically", brokenv2's plainRead) must produce exactly
// one atomicslice diagnostic, on the plain read and not on the atomic
// store beside it.
func TestBrokenInvariantReported(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go tool")
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "brokenv2"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := load.Load("", dir)
	if err != nil {
		t.Fatalf("loading brokenv2 fixture: %v", err)
	}
	diags, err := checker.Run(pkgs, suite.All())
	if err != nil {
		t.Fatalf("checker: %v", err)
	}
	var hits []checker.Diagnostic
	for _, d := range diags {
		if d.Analyzer == "atomicslice" {
			hits = append(hits, d)
		}
	}
	if len(hits) != 1 || !strings.Contains(hits[0].Message, "non-atomic access") {
		t.Fatalf("expected one atomicslice non-atomic access diagnostic, got %v", hits)
	}
	src, err := os.ReadFile(hits[0].Position.Filename)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(src), "\n")
	if l := hits[0].Position.Line; l < 1 || l > len(lines) || !strings.Contains(lines[l-1], "return color[0]") {
		t.Errorf("atomicslice fired at %s, want the plain read `return color[0]`", hits[0].Position)
	}
}

// TestSuiteSmoke seeds one violation per analyzer — miniatures of the
// engines' atomic arrays, round loops, spans, teams and slabs, and of
// the serve queue/handlers — and asserts every analyzer of the suite
// fires. This is the CI step proving the gate catches each regression
// class, not just that the tree is clean.
func TestSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go tool")
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "brokenv2"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := load.Load("", dir)
	if err != nil {
		t.Fatalf("loading brokenv2 fixture: %v", err)
	}
	diags, err := checker.Run(pkgs, suite.All())
	if err != nil {
		t.Fatalf("checker: %v", err)
	}
	want := map[string]string{
		"arenaescape":   "stored into field kept",
		"atomicpack":    "raw integer conversion",
		"atomicslice":   "non-atomic access",
		"ctxdone":       "no ctx.Done()/quit escape",
		"errflow":       "overwritten before the previous error",
		"lockhold":      "blocking inside a critical section",
		"noalloc":       "make allocates",
		"onceresp":      "status already written",
		"spanpairing":   "not ended on every path",
		"teamlifecycle": "called after t.Close",
	}
	if len(want) != len(suite.All()) {
		t.Fatalf("smoke covers %d analyzers, suite has %d", len(want), len(suite.All()))
	}
	for analyzer, substr := range want {
		found := false
		for _, d := range diags {
			if d.Analyzer == analyzer && strings.Contains(d.Message, substr) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s did not fire on its seeded violation (want message containing %q); got: %v",
				analyzer, substr, diags)
		}
	}
	for _, d := range diags {
		if _, ok := want[d.Analyzer]; !ok {
			t.Errorf("unexpected analyzer fired on brokenv2: %s", d)
		}
	}
}
