// Package atomicpack enforces the packed-key access protocol on atomics
// that pack two 32-bit values into one atomic.Uint64, such as mstbc's
// head<<32|tail claim ranges or a rank<<32|index write-min race key;
// the packing layout is an invariant shared by every reader and writer,
// so it must live in one blessed place. The directives:
//
//	//msf:packed          on an atomic field/var declaration: its values
//	                      are packed and subject to this protocol
//	//msf:packer          on a function: its result is a blessed packed
//	                      value (the pack helper)
//	//msf:unpacker        on a function: it decodes packed values; raw
//	                      bit operations are allowed inside it
//	//msf:packsink p ...  on a function: the named parameters receive
//	                      already-packed values (a CAS write-min loop
//	                      helper)
//
// Checked, per function, with reaching definitions deciding where a
// value came from:
//
//   - Store/Swap/CompareAndSwap on a packed atomic: every stored value
//     must flow from a packer call, a load of a packed atomic, a
//     packsink parameter, or a constant (an "empty slot" sentinel).
//   - No raw shifts, masks, or integer truncations of a packed value at
//     call sites — decoding goes through the matching //msf:unpacker.
//   - A packed atomic's address may only be passed to //msf:packsink
//     functions; anything else smuggles the slot out of the protocol.
//
// Unlike the other concurrency analyzers this one also runs in test
// files: a test that pokes raw bits into a packed slot corrupts the
// protocol just as effectively.
package atomicpack

import (
	"go/ast"
	"go/token"
	"go/types"

	"pmsf/internal/analysis"
	"pmsf/internal/analysis/cfg"
	"pmsf/internal/analysis/dataflow"
)

// Analyzer is the atomicpack analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "atomicpack",
	Doc: "values stored to //msf:packed atomics must flow from //msf:packer " +
		"helpers and loads must decode through the matching //msf:unpacker — " +
		"no raw shifts at call sites",
	Run: run,
}

// storeMethods maps atomic mutators to the argument indexes carrying
// new packed values. CompareAndSwap's old value must also be blessed
// (it is, via Load) so both args are checked.
var storeMethods = map[string][]int{
	"Store":          {0},
	"Swap":           {0},
	"CompareAndSwap": {0, 1},
}

type facts struct {
	packed  map[types.Object]bool  // marked fields/vars
	exempt  map[types.Object]bool  // packer/unpacker funcs: raw ops allowed inside
	packers map[types.Object]bool  // funcs whose result is blessed
	sinks   map[types.Object][]int // packsink func -> blessed param indexes
	sinkPar map[types.Object]bool  // the blessed parameter objects themselves
}

func run(pass *analysis.Pass) error {
	fc := collect(pass)
	if len(fc.packed) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj := pass.TypesInfo.Defs[fn.Name]; obj != nil && fc.exempt[obj] {
				continue // the blessed implementation does raw bits by design
			}
			checkFunc(pass, fc, fn.Body)
		}
	}
	return nil
}

// collect gathers the directive-marked objects of the package.
func collect(pass *analysis.Pass) *facts {
	info := pass.TypesInfo
	fc := &facts{
		packed:  map[types.Object]bool{},
		exempt:  map[types.Object]bool{},
		packers: map[types.Object]bool{},
		sinks:   map[types.Object][]int{},
		sinkPar: map[types.Object]bool{},
	}
	hasDirective := func(cg *ast.CommentGroup, name string) ([]string, bool) {
		if cg == nil {
			return nil, false
		}
		for _, c := range cg.List {
			if d, ok := analysis.ParseDirective(c); ok && d.Name == name {
				return d.Args, true
			}
		}
		return nil, false
	}
	markNames := func(names []*ast.Ident) {
		for _, name := range names {
			if obj := info.Defs[name]; obj != nil {
				fc.packed[obj] = true
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				if _, ok := hasDirective(n.Doc, "packed"); ok {
					markNames(n.Names)
				} else if _, ok := hasDirective(n.Comment, "packed"); ok {
					markNames(n.Names)
				}
			case *ast.ValueSpec:
				if _, ok := hasDirective(n.Doc, "packed"); ok {
					markNames(n.Names)
				} else if _, ok := hasDirective(n.Comment, "packed"); ok {
					markNames(n.Names)
				}
			case *ast.FuncDecl:
				obj := info.Defs[n.Name]
				if obj == nil {
					return true
				}
				if _, ok := analysis.FuncDirective(n, "packer"); ok {
					fc.packers[obj] = true
					fc.exempt[obj] = true
				}
				if _, ok := analysis.FuncDirective(n, "unpacker"); ok {
					fc.exempt[obj] = true
				}
				if args, ok := analysis.FuncDirective(n, "packsink"); ok {
					fc.registerSink(pass, n, obj, args)
				}
			}
			return true
		})
	}
	return fc
}

// registerSink resolves the packsink directive's parameter names.
func (fc *facts) registerSink(pass *analysis.Pass, fn *ast.FuncDecl, obj types.Object, args []string) {
	if len(args) == 0 {
		pass.Reportf(fn.Pos(), "//msf:packsink needs the packed parameter names")
		return
	}
	byName := map[string]int{}
	idx := 0
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			byName[name.Name] = idx
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
	var idxs []int
	for _, a := range args {
		i, ok := byName[a]
		if !ok {
			pass.Reportf(fn.Pos(), "//msf:packsink names unknown parameter %q", a)
			continue
		}
		idxs = append(idxs, i)
	}
	fc.sinks[obj] = idxs
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			for _, a := range args {
				if name.Name == a {
					if po := pass.TypesInfo.Defs[name]; po != nil {
						fc.sinkPar[po] = true
					}
				}
			}
		}
	}
}

// checkFunc walks one function body with reaching definitions live.
func checkFunc(pass *analysis.Pass, fc *facts, body *ast.BlockStmt) {
	info := pass.TypesInfo
	g := cfg.New(body)
	defs := dataflow.ReachingDefs(g, info)
	c := &checkerState{pass: pass, fc: fc, info: info, defs: defs}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.checkCall(n)
		case *ast.BinaryExpr:
			switch n.Op {
			case token.SHL, token.SHR, token.AND, token.OR, token.XOR, token.AND_NOT:
				if c.packedValue(n.X, 3) || c.packedValue(n.Y, 3) {
					pass.Reportf(n.OpPos,
						"raw %s on a packed value; decode through the //msf:unpacker helper", n.Op)
				}
			}
		}
		return true
	})
}

type checkerState struct {
	pass *analysis.Pass
	fc   *facts
	info *types.Info
	defs *dataflow.Defs
}

func (c *checkerState) checkCall(call *ast.CallExpr) {
	// Integer conversion of a packed value truncates half the key —
	// the bug class of indexing by a raw slot: edges[uint32(b)].
	if tv, ok := c.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if b, isBasic := tv.Type.Underlying().(*types.Basic); isBasic &&
			b.Info()&types.IsInteger != 0 && c.packedValue(call.Args[0], 3) {
			c.pass.Reportf(call.Pos(),
				"raw integer conversion of a packed value; decode through the //msf:unpacker helper")
		}
		return
	}

	// Mutations of a packed atomic must store blessed values.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && c.markedAtomic(sel.X) {
		argIdx, isStore := storeMethods[sel.Sel.Name]
		if isStore {
			for _, i := range argIdx {
				if i < len(call.Args) && !c.blessed(call.Args[i], 4) {
					c.pass.Reportf(call.Args[i].Pos(),
						"value stored to packed atomic %s does not come from a //msf:packer helper",
						types.ExprString(sel.X))
				}
			}
			return
		}
	}

	// Passing a packed atomic's address to a function that is not a
	// declared packsink smuggles the slot out of the protocol. Calls to
	// packsinks additionally have their blessed-argument positions
	// checked.
	callee := c.calleeObj(call)
	sinkIdx, isSink := c.fc.sinks[callee]
	for i, arg := range call.Args {
		if ue, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && ue.Op == token.AND && c.markedAtomic(ue.X) {
			if !isSink {
				c.pass.Reportf(arg.Pos(),
					"packed atomic %s passed to a function not marked //msf:packsink",
					types.ExprString(ue.X))
			}
		}
		if isSink {
			for _, si := range sinkIdx {
				if si == i && !c.blessed(arg, 4) {
					c.pass.Reportf(arg.Pos(),
						"packed-value argument to %s does not come from a //msf:packer helper",
						types.ExprString(call.Fun))
				}
			}
		}
	}
}

func (c *checkerState) calleeObj(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return c.info.Uses[fun]
	case *ast.SelectorExpr:
		return c.info.Uses[fun.Sel]
	}
	return nil
}

// markedAtomic reports whether e denotes a //msf:packed atomic slot:
// the marked variable/field itself or an index into a marked slice.
func (c *checkerState) markedAtomic(e ast.Expr) bool {
	e = ast.Unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(ix.X)
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := c.info.Uses[e]
		if obj == nil {
			obj = c.info.Defs[e]
		}
		if c.fc.packed[obj] {
			return true
		}
		// Local aliases of a marked slice: best := r.best.
		for _, d := range c.defs.Of(e) {
			if d.Rhs != nil && c.markedAtomic(d.Rhs) {
				return true
			}
		}
	case *ast.SelectorExpr:
		return c.fc.packed[c.info.Uses[e.Sel]]
	}
	return false
}

// packedValue reports whether e may carry a packed key: a load of a
// packed atomic, a packer result, a packsink parameter, or a variable
// one of whose reaching definitions is any of those.
func (c *checkerState) packedValue(e ast.Expr, depth int) bool {
	if depth == 0 {
		return false
	}
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Load" && c.markedAtomic(sel.X) {
			return true
		}
		if c.fc.packers[c.calleeObj(e)] {
			return true
		}
	case *ast.Ident:
		obj := c.info.Uses[e]
		if c.fc.sinkPar[obj] {
			return true
		}
		for _, d := range c.defs.Of(e) {
			if d.Rhs != nil && c.packedValue(d.Rhs, depth-1) {
				return true
			}
		}
	}
	return false
}

// blessed reports whether e is an allowed source for a packed slot:
// constants (sentinels), packer calls, loads of packed atomics,
// packsink parameters, and variables ALL of whose reaching definitions
// are blessed.
func (c *checkerState) blessed(e ast.Expr, depth int) bool {
	if depth == 0 {
		return false
	}
	e = ast.Unparen(e)
	if tv, ok := c.info.Types[e]; ok && tv.Value != nil {
		return true // constant sentinel (noMin etc.)
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		if c.fc.packers[c.calleeObj(e)] {
			return true
		}
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Load" && c.markedAtomic(sel.X) {
			return true
		}
	case *ast.Ident:
		obj := c.info.Uses[e]
		if c.fc.sinkPar[obj] {
			return true
		}
		ds := c.defs.Of(e)
		if len(ds) == 0 {
			return false
		}
		for _, d := range ds {
			if d.Rhs == nil || !c.blessed(d.Rhs, depth-1) {
				return false
			}
		}
		return true
	}
	return false
}
