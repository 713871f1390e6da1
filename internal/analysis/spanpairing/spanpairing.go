// Package spanpairing enforces the obs tracing contract from PR 1:
// every span a function starts (a local obs.Span assigned from a call —
// Collector.Start, Span.Child or any helper returning a Span) must be
// ended on every path out of its declaring block, either by a
// dominating s.End(), a defer s.End(), or an End inside a
// synchronously-invoked closure in the same statement (the
// Collector.Labeled pattern). Reassigning a span variable before ending
// the previous span is also reported — that is how the
// step = it.Child(...) chains leak spans.
//
// Spans that escape the function (returned, stored into a struct or
// composite literal) are considered handed off and are not tracked; the
// new owner carries the obligation.
package spanpairing

import (
	"go/ast"
	"go/token"
	"go/types"

	"pmsf/internal/analysis"
)

const obsPath = "pmsf/internal/obs"

// Analyzer is the spanpairing analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "spanpairing",
	Doc: "every obs span started must be ended (or deferred) on all " +
		"return paths of its declaring block",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if ok && fn.Body != nil {
				checkFunc(pass, fn)
			}
			return true
		})
	}
	return nil
}

func isSpanType(t types.Type) bool { return analysis.IsNamed(t, obsPath, "Span") }

// spanVarOf returns the object of a local span variable bound by this
// assignment from a call expression, or nil. Multi-value assignments
// (c, root := obsStart(...)) bind the Span-typed name.
func spanVarOf(info *types.Info, as *ast.AssignStmt) types.Object {
	if len(as.Rhs) != 1 {
		return nil
	}
	if _, ok := as.Rhs[0].(*ast.CallExpr); !ok {
		return nil
	}
	for _, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil && isSpanType(obj.Type()) {
			return obj
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo

	// Pass 1: find tracked span declarations — statement-level
	// assignments directly inside a block whose bound span never escapes
	// the function.
	type start struct {
		obj   types.Object
		block *ast.BlockStmt
		index int
	}
	var starts []start
	analysis.WithStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && len(stack) > 0 {
			return true // literals are walked but starts inside them get their own block
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		obj := spanVarOf(info, as)
		if obj == nil || escapes(info, fn, obj) {
			return true
		}
		block, ok := stack[len(stack)-1].(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, stmt := range block.List {
			if stmt == ast.Stmt(as) {
				starts = append(starts, start{obj, block, i})
				break
			}
		}
		return true
	})

	for _, s := range starts {
		sim := &simulator{pass: pass, info: info, obj: s.obj}
		st := sim.stmts(s.block.List[s.index+1:], state{})
		if !st.ended && !st.terminated {
			pass.Reportf(s.block.List[s.index].Pos(),
				"span %s is not ended on every path out of its block; add %s.End() (or defer it)",
				s.obj.Name(), s.obj.Name())
		}
	}
}

// escapes reports whether the span object is returned, stored into a
// composite literal, struct field, index expression or package-level
// variable — all of which hand the End obligation to another owner.
func escapes(info *types.Info, fn *ast.FuncDecl, obj types.Object) bool {
	found := false
	analysis.WithStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || (info.Uses[id] != obj && info.Defs[id] != obj) {
			return true
		}
		parent := stack[len(stack)-1]
		switch p := parent.(type) {
		case *ast.ReturnStmt:
			found = true
		case *ast.CompositeLit, *ast.KeyValueExpr:
			found = true
		case *ast.AssignStmt:
			for i, rhs := range p.Rhs {
				if rhs != ast.Expr(id) {
					continue
				}
				if i < len(p.Lhs) {
					if _, isIdent := p.Lhs[i].(*ast.Ident); !isIdent {
						found = true // stored through a selector/index
					}
				}
			}
		}
		return true
	})
	return found
}

// state is the abstract per-path state of one span variable.
type state struct {
	ended      bool // End() (or defer End()) definitely happened
	terminated bool // the path cannot fall through (return/panic)
}

type simulator struct {
	pass *analysis.Pass
	info *types.Info
	obj  types.Object
}

func (s *simulator) stmts(list []ast.Stmt, st state) state {
	for _, stmt := range list {
		if st.terminated {
			return st
		}
		st = s.stmt(stmt, st)
	}
	return st
}

func (s *simulator) stmt(stmt ast.Stmt, st state) state {
	switch n := stmt.(type) {
	case *ast.ExprStmt:
		if s.endsSpan(n.X) {
			st.ended = true
			return st
		}
		if call, ok := n.X.(*ast.CallExpr); ok {
			if isPanic(s.info, call) {
				st.terminated = true
			}
			// The Labeled pattern: End inside a closure argument that the
			// callee invokes synchronously.
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok && s.containsEnd(lit.Body) {
					st.ended = true
				}
			}
		}
		return st
	case *ast.DeferStmt:
		if s.isEndCall(n.Call) {
			st.ended = true
		}
		return st
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || s.info.Uses[id] != s.obj {
				continue
			}
			if n.Tok == token.ASSIGN {
				if !st.ended {
					s.pass.Reportf(n.Pos(),
						"span %s reassigned before %s.End(): the previous span leaks",
						s.obj.Name(), s.obj.Name())
				}
				// A fresh span from a call restarts the obligation; anything
				// else (zero Span, copy) is treated as inert.
				st.ended = true
				if len(n.Rhs) == 1 {
					if _, ok := n.Rhs[0].(*ast.CallExpr); ok {
						st.ended = false
					}
				}
			}
		}
		return st
	case *ast.ReturnStmt:
		if !st.ended {
			s.pass.Reportf(n.Pos(),
				"span %s is not ended on this return path; call %s.End() before returning",
				s.obj.Name(), s.obj.Name())
		}
		st.terminated = true
		return st
	case *ast.BlockStmt:
		return s.stmts(n.List, st)
	case *ast.IfStmt:
		then := s.stmt(n.Body, st)
		els := st
		if n.Else != nil {
			els = s.stmt(n.Else, st)
		}
		return merge(then, els)
	case *ast.ForStmt:
		s.stmt(n.Body, st) // report inside; zero iterations possible
		return st
	case *ast.RangeStmt:
		s.stmt(n.Body, st)
		return st
	case *ast.SwitchStmt:
		return s.clauses(n.Body, st, hasDefault(n.Body))
	case *ast.TypeSwitchStmt:
		return s.clauses(n.Body, st, hasDefault(n.Body))
	case *ast.SelectStmt:
		return s.clauses(n.Body, st, true)
	case *ast.LabeledStmt:
		return s.stmt(n.Stmt, st)
	case *ast.BranchStmt:
		// break/continue/goto leave the straight-line path; treat as
		// terminated so the rest of the block is judged on other paths.
		st.terminated = true
		return st
	default:
		return st
	}
}

// clauses folds the case bodies of a switch/select: the fall-through
// state is the conjunction of all non-terminating cases, plus the
// incoming state when no default exists (the switch may match nothing).
func (s *simulator) clauses(body *ast.BlockStmt, st state, exhaustive bool) state {
	out := state{ended: true, terminated: true}
	any := false
	for _, c := range body.List {
		var list []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			list = cc.Body
		case *ast.CommClause:
			list = cc.Body
		default:
			continue
		}
		any = true
		out = merge(out, s.stmts(list, st))
	}
	if !any || !exhaustive {
		out = merge(out, st)
	}
	return out
}

func merge(a, b state) state {
	switch {
	case a.terminated && b.terminated:
		return state{ended: a.ended && b.ended, terminated: true}
	case a.terminated:
		return b
	case b.terminated:
		return a
	default:
		return state{ended: a.ended && b.ended}
	}
}

func hasDefault(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// endsSpan matches v.End() for the tracked object.
func (s *simulator) endsSpan(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	return ok && s.isEndCall(call)
}

func (s *simulator) isEndCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && s.info.Uses[id] == s.obj
}

func (s *simulator) containsEnd(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && s.isEndCall(call) {
			found = true
		}
		return true
	})
	return found
}

func isPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
