// Command msf-lint runs the repo's static-analysis suite — the
// invariants the compiler cannot check: atomic access disciplines,
// zero-alloc round loops, Team lifecycles, span pairing, arena escape.
//
// Standalone (the supported CI entry point):
//
//	msf-lint ./...
//	msf-lint -tests ./...
//	msf-lint -list ./...
//
// Diagnostics go to stderr as file:line:col: [analyzer] message, the
// form CI's problem matcher reads. Every analyzer always runs; a
// finding is silenced only by an //msf:ignore directive at its line.
//
// It also speaks the `go vet -vettool` unitchecker protocol, so
//
//	go vet -vettool=$(which msf-lint) ./...
//
// works from an ordinary go toolchain: when invoked with a single
// *.cfg argument it type-checks the one package described by the
// config against the export data the go command already built and
// reports diagnostics on stderr.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 operational error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pmsf/internal/analysis"
	"pmsf/internal/analysis/checker"
	"pmsf/internal/analysis/load"
	"pmsf/internal/analysis/suite"
)

func main() {
	// go vet probes its vettool with -V=full before anything else (the
	// reply doubles as the tool's cache key), then with -flags for the
	// JSON list of analyzer flags the driver may forward. The suite
	// exposes none to the driver, so the list is empty.
	if len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V") {
		fmt.Printf("msf-lint version 1 msf-lint-suite-v1\n")
		return
	}
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}

	list := flag.Bool("list", false, "list the analyzers and exit; with packages, include per-analyzer //msf:ignore counts")
	tests := flag.Bool("tests", false, "also load and analyze _test.go sources")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: msf-lint [flags] packages...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := suite.All()
	if *list {
		listAnalyzers(analyzers, *tests, flag.Args())
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	// Unitchecker mode: a single *.cfg argument from the go vet driver.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheck(args[0], analyzers))
	}

	pkgs, err := loadPackages(*tests, args)
	if err != nil {
		fatal(err)
	}
	diags, err := checker.Run(pkgs, analyzers)
	if err != nil {
		fatal(err)
	}
	if checker.Print(os.Stderr, diags) > 0 {
		os.Exit(1)
	}
}

// loadPackages resolves the targets, with or without test sources.
func loadPackages(tests bool, patterns []string) ([]*load.Package, error) {
	if tests {
		return load.LoadTests("", patterns...)
	}
	return load.Load("", patterns...)
}

// listAnalyzers prints the suite; given packages it also loads them and
// shows how many //msf:ignore suppressions each analyzer carries there.
func listAnalyzers(analyzers []*analysis.Analyzer, tests bool, patterns []string) {
	var counts map[string]int
	if len(patterns) > 0 {
		pkgs, err := loadPackages(tests, patterns)
		if err != nil {
			fatal(err)
		}
		counts = checker.IgnoreStats(pkgs)
	}
	for _, a := range analyzers {
		if counts != nil {
			fmt.Printf("%-14s %3d ignored  %s\n", a.Name, counts[a.Name], a.Doc)
			continue
		}
		fmt.Printf("%-14s %s\n", a.Name, a.Doc)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "msf-lint:", err)
	os.Exit(2)
}
