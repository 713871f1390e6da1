package analysis_test

import (
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
// "// accessed atomically") must produce a diagnostic.
func TestBrokenInvariantReported(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go tool")
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "broken"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := load.Load("", dir)
	if err != nil {
		t.Fatalf("loading broken fixture: %v", err)
	}
	diags, err := checker.Run(pkgs, suite.All())
	if err != nil {
		t.Fatalf("checker: %v", err)
	}
	found := false
	for _, d := range diags {
		if d.Analyzer == "atomicslice" && strings.Contains(d.Message, "non-atomic access") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an atomicslice diagnostic for the plain read, got %d diagnostics: %v", len(diags), diags)
	}
}

// TestSuiteSmoke seeds one violation per v2 concurrency analyzer —
// miniatures of packed write-min race slots and the serve queue/handlers —
// and asserts every analyzer fires. This is the CI step proving the
// gate catches each regression class, not just that the tree is clean.
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
		"atomicpack": "raw integer conversion",
		"lockhold":   "blocking inside a critical section",
		"ctxdone":    "no ctx.Done()/quit escape",
		"onceresp":   "status already written",
		"errflow":    "overwritten before the previous error",
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
