// Package analysis is a self-contained, standard-library-only analogue
// of golang.org/x/tools/go/analysis: named analyzers run over
// type-checked packages and report position-anchored diagnostics. It
// exists because this repository enforces invariants the Go compiler and
// go vet cannot see — benign-until-guarded atomic access disciplines,
// zero-allocation round loops, worker-team lifecycles, span pairing and
// arena escape rules — and vendors no third-party code, so the x/tools
// framework is rebuilt here in miniature.
//
// The moving parts mirror x/tools closely so the analyzers read like
// ordinary go/analysis code: an Analyzer has a Name, a Doc string and a
// Run function; Run receives a Pass with the token.FileSet, the parsed
// files, the *types.Package and the populated *types.Info, and calls
// Pass.Reportf to emit diagnostics. Package loading lives in the sibling
// load package (a `go list -export` driver), the multichecker loop in
// checker, and the fixture harness in antest. Every path question —
// lockhold, ctxdone, atomicpack, onceresp, errflow, and the span and
// team obligations of spanpairing and teamlifecycle — runs on one
// engine: cfg builds the per-function graphs and dataflow solves them
// (its Obligation problem is the shared "must release" check).
//
// # Annotation grammar
//
// The analyzers understand three comment forms:
//
//   - "// accessed atomically" on (or directly above) a slice
//     declaration marks the slice for the atomicslice analyzer.
//   - "//msf:<directive> [args]" directives: //msf:noalloc on a
//     function's doc comment (noalloc analyzer), //msf:atomic p1 p2 on a
//     function's doc comment (marks parameters for atomicslice).
//   - "//msf:ignore <analyzer> <reason>" on the reported line or the
//     line directly above suppresses one analyzer there; the reason is
//     mandatory so every suppression documents itself.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //msf:ignore directives. By convention a short lowercase word.
	Name string
	// Doc is the one-paragraph description shown by `msf-lint -list`.
	Doc string
	// Run performs the check on one package and reports findings
	// through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report receives every diagnostic. The checker installs a hook
	// that applies //msf:ignore filtering and collects the rest.
	Report func(Diagnostic)
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Line returns the 1-based source line of pos.
func (p *Pass) Line(pos token.Pos) int { return p.Fset.Position(pos).Line }

// WithStack walks every node under root in depth-first order, calling
// fn with the node and the stack of its ancestors (outermost first, n's
// parent last). Returning false prunes the subtree below n. It is the
// stdlib-only stand-in for x/tools' inspector.WithStack.
func WithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
			return true
		}
		return false
	})
}

// Directive is one parsed //msf:name comment.
type Directive struct {
	Pos  token.Pos
	Name string   // the word after "msf:", e.g. "noalloc"
	Args []string // whitespace-separated arguments after the name
}

// ParseDirective parses a single comment as an //msf: directive;
// ok is false for ordinary comments.
func ParseDirective(c *ast.Comment) (Directive, bool) {
	text, found := strings.CutPrefix(c.Text, "//msf:")
	if !found {
		return Directive{}, false
	}
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return Directive{}, false
	}
	return Directive{Pos: c.Pos(), Name: fields[0], Args: fields[1:]}, true
}

// Directives returns every //msf: directive in the file, in source
// order.
func Directives(f *ast.File) []Directive {
	var out []Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if d, ok := ParseDirective(c); ok {
				out = append(out, d)
			}
		}
	}
	return out
}

// FuncDirective reports whether fn's doc comment carries the named
// //msf: directive and returns its arguments.
func FuncDirective(fn *ast.FuncDecl, name string) ([]string, bool) {
	if fn.Doc == nil {
		return nil, false
	}
	for _, c := range fn.Doc.List {
		if d, ok := ParseDirective(c); ok && d.Name == name {
			return d.Args, true
		}
	}
	return nil, false
}

// MarkerLines returns the set of lines carrying a comment whose text
// contains marker. A marker on line L applies to declarations on L
// (trailing comment) and — when the marker sits on a line of its own —
// to L+1; deciding which is the caller's job, since it needs to know
// where declarations sit.
func MarkerLines(fset *token.FileSet, f *ast.File, marker string) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, marker) {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// IsPkgCall reports whether call invokes the package-level function
// pkgpath.name (e.g. "sync/atomic".CompareAndSwapInt64), resolving the
// qualifier through the type info so import renames are handled.
func IsPkgCall(info *types.Info, call *ast.CallExpr, pkgpath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgpath
}

// CallPkg returns the import path and function name of a package-level
// call (ok is false for method calls, builtins and locals).
func CallPkg(info *types.Info, call *ast.CallExpr) (pkgpath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// ReceiverNamed returns the *types.Named behind expr's type, looking
// through pointers and aliases, or nil.
func ReceiverNamed(info *types.Info, expr ast.Expr) *types.Named {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return nil
	}
	return NamedOf(tv.Type)
}

// NamedOf unwraps pointers and aliases down to a *types.Named, or nil.
func NamedOf(t types.Type) *types.Named {
	for {
		switch tt := types.Unalias(t).(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// IsNamed reports whether t is (a pointer to) the named type
// pkgpath.name.
func IsNamed(t types.Type, pkgpath, name string) bool {
	n := NamedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == pkgpath && obj.Name() == name
}

// ParPath is the import path of the worker-team runtime.
const ParPath = "pmsf/internal/par"

// teamPhases are the par.Team methods that hand a phase to the team's
// workers and wait for all of them.
var teamPhases = map[string]bool{"Run": true, "For": true, "ForDynamic": true, "PackIndices": true}

// TeamPhase reports whether call dispatches a phase on a par.Team, and
// returns the method name. Such a call parks its caller until every
// worker is done: from inside a phase body it deadlocks, and under a
// lock it holds the lock for the whole phase.
func TeamPhase(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !teamPhases[sel.Sel.Name] {
		return "", false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil || !IsNamed(tv.Type, ParPath, "Team") {
		return "", false
	}
	return sel.Sel.Name, true
}
