// Package errflow tracks error values from their producing call to a
// check. An error variable becomes "unchecked" when a call assigns it
// and stays unchecked until any read — an `if err != nil`, an
// errors.Is, logging it, returning it — consumes the value. Two
// terminal sins are reported:
//
//   - the variable is overwritten by another call while still
//     unchecked (the first failure is silently dropped), and
//   - a `return nil` in the error position executes while an unchecked
//     error is live (the caller is told everything succeeded).
//
// The analysis is flow-sensitive over the CFG: an error checked on one
// branch but not the other is still unchecked at the join. Deliberate
// discards stay available — `_ = err` is a read. Variables captured by
// closures, goroutines, or defers are excluded (their reads happen on
// another control flow), as are named result parameters (naked returns
// read them implicitly). Test files are skipped.
package errflow

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"pmsf/internal/analysis"
	"pmsf/internal/analysis/cfg"
	"pmsf/internal/analysis/dataflow"
)

// Analyzer is the errflow analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "errflow",
	Doc: "an error assigned from a call must be read before it is " +
		"overwritten or control returns nil in the error position",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFunc(pass, n.Type, n.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, n.Type, n.Body)
			}
			return true
		})
	}
	return nil
}

// isErrorType reports whether t is the built-in error interface.
var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}

type state struct {
	pass     *analysis.Pass
	info     *types.Info
	excluded map[types.Object]bool // captured by closures / named results
	errPos   []int                 // indexes of error results in the signature
	nresults int
}

func checkFunc(pass *analysis.Pass, ftyp *ast.FuncType, body *ast.BlockStmt) {
	st := &state{pass: pass, info: pass.TypesInfo, excluded: map[types.Object]bool{}}

	// Named results are read by naked returns and deferred recover
	// blocks; exclude them.
	if ftyp.Results != nil {
		idx := 0
		for _, field := range ftyp.Results.List {
			n := len(field.Names)
			if n == 0 {
				n = 1
			}
			for i := 0; i < n; i++ {
				if tv, ok := st.info.Types[field.Type]; ok && isErrorType(tv.Type) {
					st.errPos = append(st.errPos, idx)
				}
				idx++
			}
			for _, name := range field.Names {
				if obj := st.info.Defs[name]; obj != nil {
					st.excluded[obj] = true
				}
			}
		}
		st.nresults = idx
	}

	// Variables referenced inside nested function literals live on a
	// different control flow; exclude them wholesale.
	for _, stmt := range body.List {
		ast.Inspect(stmt, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := st.info.Uses[id]; obj != nil && isErrorType(obj.Type()) {
						st.excluded[obj] = true
					}
				}
				return true
			})
			return false
		})
	}

	g := cfg.New(body)
	res := dataflow.Solve(g, dataflow.Problem[dataflow.Set[types.Object]]{
		Boundary: dataflow.Set[types.Object]{},
		Init:     dataflow.Set[types.Object]{},
		Join:     dataflow.Union[types.Object],
		Equal:    dataflow.EqualSets[types.Object],
		Transfer: st.transfer,
	})

	reported := map[ast.Node]bool{}
	for _, blk := range g.Blocks {
		live := res.In[blk]
		for _, n := range blk.Nodes {
			st.report(n, live, reported)
			live = st.transfer(n, live)
		}
	}
}

// transfer: reads kill, call-assignments gen, nil/copy assignments
// reset.
func (st *state) transfer(n ast.Node, in dataflow.Set[types.Object]) dataflow.Set[types.Object] {
	out := in
	for _, obj := range st.reads(n) {
		if out.Has(obj) {
			out = out.Clone()
			break
		}
	}
	for _, obj := range st.reads(n) {
		out.Delete(obj)
	}
	gens, resets := st.writes(n)
	if len(gens) > 0 || len(resets) > 0 {
		out = out.Clone()
	}
	for _, obj := range resets {
		out.Delete(obj)
	}
	for _, obj := range gens {
		out.Add(obj)
	}
	return out
}

// report flags overwrites of live errors and nil returns past them.
func (st *state) report(n ast.Node, live dataflow.Set[types.Object], reported map[ast.Node]bool) {
	if reported[n] {
		return
	}
	// After this node's reads, which errors are still unchecked?
	after := live.Clone()
	for _, obj := range st.reads(n) {
		after.Delete(obj)
	}

	gens, resets := st.writes(n)
	for _, obj := range append(gens, resets...) {
		if after.Has(obj) {
			reported[n] = true
			st.pass.Reportf(n.Pos(),
				"%s is overwritten before the previous error in it is checked", obj.Name())
			return
		}
	}

	if ret, ok := n.(*ast.ReturnStmt); ok && len(after) > 0 && st.returnsNilError(ret) {
		reported[n] = true
		st.pass.Reportf(ret.Pos(),
			"return nil while the error in %s is unchecked: the failure is dropped",
			nameList(after))
	}
}

// reads returns the error-typed objects read by n (LHS targets of
// assignments excluded). Nested function literals, selects, and range
// bodies are not part of this node.
func (st *state) reads(n ast.Node) []types.Object {
	var out []types.Object
	lhs := map[*ast.Ident]bool{}
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, l := range as.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok {
				lhs[id] = true
			}
		}
	}
	cfg.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if lhs[m] {
				return true
			}
			if obj := st.info.Uses[m]; obj != nil && isErrorType(obj.Type()) && !st.excluded[obj] {
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}

// writes splits the error-typed objects written by n into gens (the
// right-hand side contains a call, so a live error may arrive) and
// resets (nil or a copy: the previous obligation moves or dies).
func (st *state) writes(n ast.Node) (gens, resets []types.Object) {
	classify := func(names []*ast.Ident, rhs []ast.Expr, def bool) {
		fromCall := false
		for _, r := range rhs {
			ast.Inspect(r, func(m ast.Node) bool {
				if _, ok := m.(*ast.FuncLit); ok {
					return false
				}
				if _, ok := m.(*ast.CallExpr); ok {
					fromCall = true
					return false
				}
				return true
			})
		}
		for _, id := range names {
			var obj types.Object
			if def {
				obj = st.info.Defs[id]
			} else {
				obj = st.info.Uses[id]
			}
			if obj == nil || !isErrorType(obj.Type()) || st.excluded[obj] {
				continue
			}
			if fromCall {
				gens = append(gens, obj)
			} else {
				resets = append(resets, obj)
			}
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		var names []*ast.Ident
		for _, l := range n.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
				names = append(names, id)
			}
		}
		// := mixes defs and uses; resolve per ident.
		for _, id := range names {
			def := st.info.Defs[id] != nil
			classify([]*ast.Ident{id}, n.Rhs, def)
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return nil, nil
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			classify(vs.Names, vs.Values, true)
		}
	}
	return gens, resets
}

// returnsNilError reports whether ret explicitly returns nil in an
// error result position.
func (st *state) returnsNilError(ret *ast.ReturnStmt) bool {
	if len(ret.Results) != st.nresults || len(st.errPos) == 0 {
		return false
	}
	for _, i := range st.errPos {
		if i >= len(ret.Results) {
			continue
		}
		if id, ok := ast.Unparen(ret.Results[i]).(*ast.Ident); ok && id.Name == "nil" {
			return true
		}
	}
	return false
}

func nameList(s dataflow.Set[types.Object]) string {
	var names []string
	for obj := range s {
		names = append(names, obj.Name())
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
