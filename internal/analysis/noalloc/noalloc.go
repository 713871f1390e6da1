// Package noalloc enforces the zero-allocation contract of functions
// annotated //msf:noalloc — the Borůvka EL/ALM/FAL steady-state round
// loops, the two-level Compactor phases and the par.Team phase
// machinery. The annotation is intraprocedural: it promises the
// function body itself introduces no allocation sites, which is exactly
// what the Test*RoundZeroAllocs pins verify dynamically. Flagged
// constructs: make/new/append, capturing closures and method values
// (both allocate a closure object), slice/map/&composite literals,
// interface conversions (explicit or implicit argument boxing), string
// concatenation and conversions, and go statements.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"pmsf/internal/analysis"
)

// Analyzer is the noalloc analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc: "functions annotated //msf:noalloc must not contain allocation " +
		"sites (make/append/new, capturing closures, boxing conversions, ...)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, ok := analysis.FuncDirective(fn, "noalloc"); ok {
				checkBody(pass, fn)
			}
		}
	}
	return nil
}

func checkBody(pass *analysis.Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	analysis.WithStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.FuncLit:
			if captured := capturedVars(info, n); len(captured) > 0 {
				pass.Reportf(n.Pos(),
					"closure captures %s and allocates per call; prebind it (method value stored at setup)",
					captured[0])
			}
		case *ast.CompositeLit:
			switch types.Unalias(typeOf(info, n)).(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal allocates")
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal allocates")
			default:
				if len(stack) > 0 {
					if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND {
						pass.Reportf(n.Pos(), "&composite literal allocates (escapes to the heap)")
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(typeOf(info, n.X)) {
				pass.Reportf(n.Pos(), "string concatenation allocates")
			}
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement allocates a goroutine")
		case *ast.SelectorExpr:
			// t.Method used as a value (not called) allocates a bound
			// method closure.
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal {
				called := false
				if len(stack) > 0 {
					if call, ok := stack[len(stack)-1].(*ast.CallExpr); ok && call.Fun == ast.Expr(n) {
						called = true
					}
				}
				if !called {
					pass.Reportf(n.Pos(), "method value %s allocates a closure; prebind it at setup", n.Sel.Name)
				}
			}
		}
		return true
	})
}

// checkCall flags allocating builtins, allocating conversions, and
// implicit interface boxing of arguments.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	// Builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "append":
				pass.Reportf(call.Pos(), "%s allocates", b.Name())
			}
			return
		}
	}
	// Conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		target := types.Unalias(tv.Type)
		if len(call.Args) != 1 {
			return
		}
		opTV, ok := info.Types[call.Args[0]]
		if !ok || opTV.Type == nil {
			return
		}
		op := types.Unalias(opTV.Type)
		switch {
		case types.IsInterface(target) && !types.IsInterface(op) && !opTV.IsNil():
			pass.Reportf(call.Pos(), "conversion to interface boxes the value (allocates)")
		case isString(target) && !isString(op):
			pass.Reportf(call.Pos(), "conversion to string allocates")
		case isByteOrRuneSlice(target) && isString(op):
			pass.Reportf(call.Pos(), "string-to-slice conversion allocates")
		}
		return
	}
	// Ordinary call: implicit boxing of concrete arguments into
	// interface parameters (including variadic ...any).
	sig, ok := types.Unalias(typeOf(info, call.Fun)).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := types.Unalias(params.At(params.Len() - 1).Type())
			if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
			}
			if call.Ellipsis.IsValid() {
				pt = last // s... passes the slice itself
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		atv, ok := info.Types[arg]
		if !ok || atv.Type == nil || atv.IsNil() || types.IsInterface(atv.Type) {
			continue
		}
		pass.Reportf(arg.Pos(), "argument boxes into interface parameter (allocates)")
	}
}

// capturedVars returns the names of variables the literal references
// that are declared outside it (excluding package-level variables,
// which need no capture).
func capturedVars(info *types.Info, lit *ast.FuncLit) []string {
	var out []string
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || seen[obj] || obj.IsField() {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true // declared inside the literal
		}
		if pkgLevel(obj) {
			return true
		}
		seen[obj] = true
		out = append(out, obj.Name())
		return true
	})
	return out
}

func pkgLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}

func isString(t types.Type) bool {
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := types.Unalias(t).Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
