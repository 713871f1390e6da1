// Package onceresp checks that every path through a serve handler
// writes exactly one HTTP status. A handler is any function or closure
// with the `(http.ResponseWriter, *http.Request)` signature. The two
// bug classes are the missing `return` after an error write (the
// response then carries two statuses and a concatenated body) and the
// forgotten path that falls off the end without answering at all.
//
// The analysis runs a forward dataflow over the set of possible
// write-counts on the paths reaching each point, saturating at 2
// (0, 1, and "too many" are the only distinctions that matter). A
// status write is a call to a //msf:respwrite-marked helper (serve's
// writeJSON/writeError), w.WriteHeader, or one of net/http's writing
// conveniences (Error, NotFound, Redirect, ServeFile, ServeContent).
//
// Two escapes keep the analysis honest on real handlers:
//
//   - Passing the ResponseWriter to any other function (w.Write,
//     Fprintf(w, ...), a streaming helper) delegates the response;
//     such paths become exempt rather than guessed at.
//     http.MaxBytesReader is known not to write and stays checked.
//   - A select case receiving from <-ctx.Done() (a context.Context's
//     cancellation) means the client is gone; writing nothing there
//     is correct and the path is exempt.
package onceresp

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pmsf/internal/analysis"
	"pmsf/internal/analysis/cfg"
	"pmsf/internal/analysis/dataflow"
)

// Analyzer is the onceresp analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "onceresp",
	Doc: "every path through an http handler must write exactly one status: " +
		"no fallthrough after an error write, no path that never answers",
	Run: run,
}

// exempt is the write-count meaning "this path delegated the response
// or the client is gone"; it absorbs all further writes.
const exempt = -1

// httpWriters are net/http package functions that write a status; the
// int is the index of the ResponseWriter argument.
var httpWriters = map[string]int{
	"Error":        0,
	"NotFound":     0,
	"Redirect":     0,
	"ServeFile":    0,
	"ServeContent": 0,
}

func run(pass *analysis.Pass) error {
	respwrite := collectRespWriters(pass)
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var ftyp *ast.FuncType
			var body *ast.BlockStmt
			var pos ast.Node
			switch n := n.(type) {
			case *ast.FuncDecl:
				ftyp, body, pos = n.Type, n.Body, n.Name
			case *ast.FuncLit:
				ftyp, body, pos = n.Type, n.Body, n
			default:
				return true
			}
			if body == nil {
				return true
			}
			w := handlerWriter(pass.TypesInfo, ftyp)
			if w == nil {
				return true
			}
			checkHandler(pass, respwrite, w, body, pos)
			return true
		})
	}
	return nil
}

// collectRespWriters gathers the //msf:respwrite-marked functions of
// the package.
func collectRespWriters(pass *analysis.Pass) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if _, ok := analysis.FuncDirective(fn, "respwrite"); ok {
				if obj := pass.TypesInfo.Defs[fn.Name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	return out
}

// handlerWriter returns the ResponseWriter parameter object if ftyp is
// the two-parameter handler signature, else nil.
func handlerWriter(info *types.Info, ftyp *ast.FuncType) types.Object {
	if ftyp.Params == nil || ftyp.Params.NumFields() != 2 {
		return nil
	}
	var w types.Object
	var haveReq bool
	idx := 0
	for _, field := range ftyp.Params.List {
		names := field.Names
		if len(names) == 0 {
			names = []*ast.Ident{nil}
		}
		for _, name := range names {
			var t types.Type
			if tv, ok := info.Types[field.Type]; ok {
				t = tv.Type
			}
			if t == nil {
				return nil
			}
			switch {
			case idx == 0 && analysis.IsNamed(t, "net/http", "ResponseWriter"):
				if name != nil {
					w = info.Defs[name]
				}
			case idx == 1:
				if p, ok := t.(*types.Pointer); ok && analysis.IsNamed(p.Elem(), "net/http", "Request") {
					haveReq = true
				}
			}
			idx++
		}
	}
	if w == nil || !haveReq {
		return nil
	}
	return w
}

type state struct {
	pass      *analysis.Pass
	respwrite map[types.Object]bool
	w         types.Object
}

func checkHandler(pass *analysis.Pass, respwrite map[types.Object]bool, w types.Object, body *ast.BlockStmt, pos ast.Node) {
	st := &state{pass: pass, respwrite: respwrite, w: w}
	g := cfg.New(body)
	res := dataflow.Solve(g, dataflow.Problem[dataflow.Set[int]]{
		Boundary: dataflow.NewSet(0),
		Init:     dataflow.Set[int]{},
		Join:     dataflow.Union[int],
		Equal:    dataflow.EqualSets[int],
		Transfer: st.transfer,
	})

	// Double writes: replay each block and flag the first status write
	// reachable with a write already behind it.
	reported := false
	for _, blk := range g.Blocks {
		counts := res.In[blk]
		for _, n := range blk.Nodes {
			if !reported && st.writesIn(n) > 0 && (counts.Has(1) || counts.Has(2)) {
				pass.Reportf(n.Pos(),
					"status already written on a path reaching this write "+
						"(missing return after the first write?)")
				reported = true
			}
			counts = st.transfer(n, counts)
		}
	}

	// Zero writes: a path reaches the handler's exit with count 0.
	if res.In[g.Exit].Has(0) {
		pass.Reportf(pos.Pos(),
			"handler returns without writing a status on some path")
	}
}

// transfer advances the write-count set across one CFG node.
func (st *state) transfer(n ast.Node, in dataflow.Set[int]) dataflow.Set[int] {
	hard, soft := st.classify(n)
	if soft {
		return dataflow.NewSet(exempt)
	}
	out := in
	for i := 0; i < hard; i++ {
		next := dataflow.Set[int]{}
		for c := range out {
			if c == exempt {
				next.Add(exempt)
			} else if c >= 2 {
				next.Add(2)
			} else {
				next.Add(c + 1)
			}
		}
		out = next
	}
	return out
}

// writesIn returns the number of hard status writes in n.
func (st *state) writesIn(n ast.Node) int {
	hard, _ := st.classify(n)
	return hard
}

// classify scans one CFG node for response writes: hard counts the
// definite status writes, soft reports delegation of the writer (or a
// client-gone ctx.Done receive) that exempts the path.
func (st *state) classify(n ast.Node) (hard int, soft bool) {
	if stmt, ok := n.(ast.Stmt); ok && st.ctxDoneReceive(stmt) {
		return 0, true
	}
	cfg.Inspect(n, func(n ast.Node) bool {
		if soft {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			h, s := st.classifyCall(n)
			hard += h
			soft = soft || s
		}
		return true
	})
	return hard, soft
}

func (st *state) classifyCall(call *ast.CallExpr) (hard int, soft bool) {
	info := st.pass.TypesInfo

	// w.WriteHeader / w.Write on the handler's writer.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && info.Uses[id] == st.w {
			switch sel.Sel.Name {
			case "WriteHeader":
				return 1, false
			case "Write":
				return 0, true // body write: status is implicit, stream follows
			case "Header":
				return 0, false
			}
		}
	}

	// Marked package-local writers.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && st.respwrite[info.Uses[id]] {
		return 1, false
	}

	// net/http's writing conveniences.
	if pkg, name, ok := analysis.CallPkg(info, call); ok && pkg == "net/http" {
		if _, isWriter := httpWriters[name]; isWriter {
			return 1, false
		}
		if name == "MaxBytesReader" {
			return 0, false // wraps the body; never writes the response
		}
	}

	// Any other call receiving w delegates the response.
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == st.w {
			return 0, true
		}
	}
	return 0, false
}

// ctxDoneReceive reports whether stmt receives from a
// context.Context's Done() channel — the client-gone select case.
func (st *state) ctxDoneReceive(stmt ast.Stmt) bool {
	var recv ast.Expr
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		recv = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			recv = s.Rhs[0]
		}
	}
	ue, ok := recv.(*ast.UnaryExpr)
	if !ok || ue.Op != token.ARROW {
		return false
	}
	call, ok := ast.Unparen(ue.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	tv, ok := st.pass.TypesInfo.Types[sel.X]
	return ok && analysis.IsNamed(tv.Type, "context", "Context")
}
