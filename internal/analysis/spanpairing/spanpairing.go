// Package spanpairing enforces the obs tracing contract:
// every span a function starts (a local obs.Span assigned from a call —
// Collector.Start, Span.Child or any helper returning a Span) must be
// ended on every path out of the function, either by s.End(), a defer
// s.End(), or an End inside a closure passed to a call that runs it
// synchronously (the Collector.Labeled pattern). A return that leaves
// the span open is reported there; a path that falls off the end, or
// comes back around a loop to the start (a `continue` or `break` that
// skips the End), is reported at the start. Reassigning a span
// variable before ending the previous span is also reported — that is
// how the step = it.Child(...) chains leak spans.
//
// Spans handed to another owner (returned or stored) are not tracked;
// the new owner carries the obligation. The path analysis is the shared
// dataflow.Obligation problem.
package spanpairing

import (
	"go/ast"
	"go/types"

	"pmsf/internal/analysis"
	"pmsf/internal/analysis/dataflow"
)

const obsPath = "pmsf/internal/obs"

// Analyzer is the spanpairing analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "spanpairing",
	Doc: "every obs span started must be ended (or deferred) on every " +
		"path out of its function, loop continue/break paths included",
	Run: run,
}

var spans = &dataflow.Obligation{
	Tracks:       func(t types.Type) bool { return analysis.IsNamed(t, obsPath, "Span") },
	Opens:        func(*types.Info, *ast.CallExpr) bool { return true },
	Release:      "End",
	PerStatement: true,
}

func run(pass *analysis.Pass) error {
	for _, f := range spans.Check(pass.TypesInfo, pass.Files) {
		name := f.Obj.Name()
		switch f.Kind {
		case dataflow.Leaked:
			pass.Reportf(f.At.Pos(),
				"span %s is not ended on every path out of its block; add %s.End() (or defer it)",
				name, name)
		case dataflow.ReturnedOpen:
			pass.Reportf(f.At.Pos(),
				"span %s is not ended on this return path; call %s.End() before returning",
				name, name)
		case dataflow.Overwritten:
			pass.Reportf(f.At.Pos(),
				"span %s reassigned before %s.End(): the previous span leaks",
				name, name)
		}
	}
	return nil
}
