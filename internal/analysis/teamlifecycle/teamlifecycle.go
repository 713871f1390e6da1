// Package teamlifecycle enforces the par.Team contract: every
// par.NewTeam result must reach a Close on every path (directly,
// deferred, or by being returned or stored for an owner that closes
// it), no Team method may be called on a path after a non-deferred
// Close, and a phase body passed to a phase method (analysis.TeamPhase)
// must not call back into a Team — nested phases deadlock by
// construction (the workers that would serve the inner phase are all
// parked inside the outer one). The two path rules are the shared
// dataflow.Obligation problem.
package teamlifecycle

import (
	"go/ast"
	"go/types"

	"pmsf/internal/analysis"
	"pmsf/internal/analysis/dataflow"
)

// Analyzer is the teamlifecycle analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "teamlifecycle",
	Doc: "par.NewTeam results must be closed, not used after Close, " +
		"and phase bodies must not call back into a Team",
	Run: run,
}

var teams = &dataflow.Obligation{
	Tracks: func(t types.Type) bool { return analysis.IsNamed(t, analysis.ParPath, "Team") },
	Opens: func(info *types.Info, call *ast.CallExpr) bool {
		return analysis.IsPkgCall(info, call, analysis.ParPath, "NewTeam")
	},
	Release:         "Close",
	UseAfterRelease: true,
}

func run(pass *analysis.Pass) error {
	for _, f := range teams.Check(pass.TypesInfo, pass.Files) {
		name := f.Obj.Name()
		switch f.Kind {
		case dataflow.Leaked:
			pass.Reportf(f.At.(*ast.AssignStmt).Rhs[0].Pos(),
				"par.NewTeam result %s is never closed: missing %s.Close() (or defer)",
				name, name)
		case dataflow.UsedAfterRelease:
			pass.Reportf(f.At.Pos(),
				"%s.%s called after %s.Close(): the workers are gone",
				name, f.Method, name)
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkNestedPhases(pass, fn)
			}
		}
	}
	return nil
}

// checkNestedPhases flags phase closures that call back into a Team.
func checkNestedPhases(pass *analysis.Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		outer, ok := analysis.TeamPhase(info, call)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			lit, ok := arg.(*ast.FuncLit)
			if !ok {
				continue
			}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				inner, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, ok := analysis.TeamPhase(info, inner); ok {
					pass.Reportf(inner.Pos(),
						"Team.%s inside a phase body passed to Team.%s deadlocks: "+
							"the workers serving the outer phase cannot run the inner one",
						name, outer)
				}
				return true
			})
		}
		return true
	})
}
