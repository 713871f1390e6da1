package dataflow

import (
	"go/ast"
	"go/types"
	"slices"

	"pmsf/internal/analysis"
	"pmsf/internal/analysis/cfg"
)

// Obligation is a forward "must release" problem: a local bound from an
// opening call (Collector.Start, par.NewTeam, ...) must reach its
// releasing method (End, Close) on every path out of the function. The
// fact tracks, per local, the may-set of states {open, released}.
//
// A release is a direct call of the method, a defer of it, or a call
// inside a function literal passed as an argument to another call (the
// Collector.Labeled pattern: the callee runs it synchronously). A defer
// discharges the obligation without marking the local released, since
// the deferred call runs only at exit. Paths that end in panic, os.Exit
// or log.Fatal carry no obligation.
//
// A local whose value is handed off — returned, stored in a composite
// literal, field, element or other variable, or sent on a channel — is
// owned elsewhere; it is not held to the obligation, though use after
// release is still checked. Passing it to a call only lends it.
type Obligation struct {
	// Tracks reports whether a local of type t is subject to the rule.
	Tracks func(t types.Type) bool
	// Opens reports whether call yields a value that must be released.
	Opens func(info *types.Info, call *ast.CallExpr) bool
	// Release names the releasing method.
	Release string
	// PerStatement makes a return or an `=` that drops an open value a
	// finding at that statement (the return then discharges the path).
	// Without it both fold into the Leaked finding at the opening call.
	PerStatement bool
	// UseAfterRelease makes any other method call on the local, on a
	// path where it was released, a finding.
	UseAfterRelease bool
}

// FindingKind classifies an obligation finding.
type FindingKind int

const (
	// Leaked: the value is open at function exit, when control comes
	// back around a loop to its opening assignment, or (without
	// PerStatement) when it is dropped. At is the opening assignment.
	Leaked FindingKind = iota
	// ReturnedOpen: a return while the value is open. At is the return.
	ReturnedOpen
	// Overwritten: an `=` while the value is open. At is the assignment.
	Overwritten
	// UsedAfterRelease: a method call after release. At is the call.
	UsedAfterRelease
)

// Finding is one violation of an Obligation.
type Finding struct {
	Kind   FindingKind
	Obj    types.Object
	At     ast.Node
	Method string // the called method, for UsedAfterRelease
}

// slot is one element of the fact: local obj may be in state st, open
// (holding a value not yet released) or released (released directly).
type slot struct {
	obj types.Object
	st  uint8
}

const (
	open uint8 = iota
	released
)

// Check runs o over every function body in files, declarations and
// literals alike, each on its own graph, and returns the findings.
func (o *Obligation) Check(info *types.Info, files []*ast.File) []Finding {
	var out []Finding
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					out = append(out, o.checkBody(info, fn.Body)...)
				}
			case *ast.FuncLit:
				out = append(out, o.checkBody(info, fn.Body)...)
			}
			return true
		})
	}
	return out
}

// bodyCheck is the obligation state of one function body.
type bodyCheck struct {
	o         *Obligation
	info      *types.Info
	tracked   []types.Object // in order of first opening
	start     map[types.Object]*ast.AssignStmt
	handedOff map[types.Object]bool
}

func (o *Obligation) checkBody(info *types.Info, body *ast.BlockStmt) []Finding {
	c := &bodyCheck{o: o, info: info, start: map[types.Object]*ast.AssignStmt{}}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a literal is its own body
		}
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, obj := range c.opened(as) {
				if c.start[obj] == nil {
					c.start[obj] = as
					c.tracked = append(c.tracked, obj)
				}
			}
		}
		return true
	})
	if len(c.tracked) == 0 {
		return nil
	}
	c.handedOff = handedOff(info, body, c.start)

	g := cfg.New(body)
	res := Solve(g, Problem[Set[slot]]{
		Join:     Union[slot],
		Equal:    EqualSets[slot],
		Transfer: func(n ast.Node, in Set[slot]) Set[slot] { return c.step(n, in, nil) },
	})
	var out []Finding
	leaked := map[types.Object]bool{}
	emit := func(f Finding) {
		if f.Kind == Leaked {
			if leaked[f.Obj] {
				return
			}
			leaked[f.Obj] = true
		}
		out = append(out, f)
	}
	for _, b := range g.Blocks {
		f := res.In[b]
		for _, n := range b.Nodes {
			f = c.step(n, f, emit)
		}
	}
	atExit := res.In[g.Exit]
	for _, obj := range c.tracked {
		if atExit.Has(slot{obj, open}) && !c.handedOff[obj] {
			emit(Finding{Kind: Leaked, Obj: obj, At: c.start[obj]})
		}
	}
	return out
}

// opened returns the tracked locals an assignment binds from an
// opening call (`c, root := obsStart(...)` binds root).
func (c *bodyCheck) opened(as *ast.AssignStmt) []types.Object {
	if len(as.Rhs) != 1 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || !c.o.Opens(c.info, call) {
		return nil
	}
	var out []types.Object
	for _, lhs := range as.Lhs {
		if obj := c.local(lhs); obj != nil {
			out = append(out, obj)
		}
	}
	return out
}

// local resolves e to a function-local variable of a tracked type.
func (c *bodyCheck) local(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := c.info.Defs[id]
	if obj == nil {
		obj = c.info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() || !c.o.Tracks(v.Type()) {
		return nil
	}
	return v
}

// methodCall matches x.M(...) on a tracked local x.
func (c *bodyCheck) methodCall(call *ast.CallExpr) (types.Object, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, ""
	}
	if obj := c.info.Uses[id]; obj != nil && c.start[obj] != nil {
		return obj, sel.Sel.Name
	}
	return nil, ""
}

// step is the transfer function of block-level node n; with emit set it
// also reports the findings n makes.
func (c *bodyCheck) step(n ast.Node, in Set[slot], emit func(Finding)) Set[slot] {
	out, cloned := in, false
	// mod turns one slot on or off, copying the fact on first change.
	mod := func(obj types.Object, st uint8, on bool) {
		if k := (slot{obj, st}); out.Has(k) != on {
			if !cloned {
				out, cloned = in.Clone(), true
			}
			if on {
				out.Add(k)
			} else {
				out.Delete(k)
			}
		}
	}
	report := func(f Finding) {
		if emit != nil {
			emit(f)
		}
	}
	// dropped reports obj if its open value is lost at n: as kind with
	// PerStatement, otherwise as Leaked at the opening assignment.
	dropped := func(obj types.Object, kind FindingKind) bool {
		if !out.Has(slot{obj, open}) || c.handedOff[obj] {
			return false
		}
		if !c.o.PerStatement {
			kind = Leaked
		}
		at := n
		if kind == Leaked {
			at = c.start[obj]
		}
		report(Finding{Kind: kind, Obj: obj, At: at})
		return true
	}
	// apply runs the calls under root: a release marks the local
	// released, any other method on a released local is a use after it.
	apply := func(root ast.Node) {
		c.calls(root, func(call *ast.CallExpr) {
			obj, name := c.methodCall(call)
			switch {
			case obj == nil:
			case name == c.o.Release:
				mod(obj, open, false)
				mod(obj, released, true)
			case c.o.UseAfterRelease && in.Has(slot{obj, released}):
				report(Finding{Kind: UsedAfterRelease, Obj: obj, At: call, Method: name})
			}
		})
	}

	switch n := n.(type) {
	case *ast.DeferStmt:
		// The deferred call runs at exit: it discharges the obligation
		// but releases nothing yet.
		root := ast.Node(n.Call)
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			root = lit.Body
		}
		c.calls(root, func(call *ast.CallExpr) {
			if obj, name := c.methodCall(call); obj != nil && name == c.o.Release {
				mod(obj, open, false)
			}
		})
		return out
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok && cfg.IsTerminalCall(call) {
			return nil // the path ends here; nothing can leak
		}
	}

	apply(n)
	switch n := n.(type) {
	case *ast.AssignStmt:
		opens := c.opened(n)
		for _, lhs := range n.Lhs {
			obj := c.local(lhs)
			if obj == nil || c.start[obj] == nil {
				continue
			}
			if c.info.Defs[lhs.(*ast.Ident)] != nil {
				// A fresh := meeting its own open value: the previous
				// iteration of a loop leaked it.
				dropped(obj, Leaked)
			} else {
				dropped(obj, Overwritten)
			}
			// A fresh value is open; a zero value or a copy is inert.
			mod(obj, released, false)
			mod(obj, open, slices.Contains(opens, obj))
		}
	case *ast.ReturnStmt:
		for _, obj := range c.tracked {
			if c.o.PerStatement && dropped(obj, ReturnedOpen) {
				mod(obj, open, false) // reported here, not again at exit
			}
		}
	}
	return out
}

// calls visits the calls n makes at its CFG node (cfg.Inspect),
// including those inside function literals passed as call arguments;
// other literals are not run here.
func (c *bodyCheck) calls(n ast.Node, fn func(*ast.CallExpr)) {
	cfg.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			fn(m)
			for _, arg := range m.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					c.calls(lit.Body, fn)
				}
			}
		}
		return true
	})
}

// handedOff returns the locals among starts whose value body passes to
// another owner: returned, put in a composite literal, assigned to
// anything but the blank identifier, or sent on a channel. Call
// arguments, method calls on the local and &local keep it owned.
func handedOff(info *types.Info, body *ast.BlockStmt, starts map[types.Object]*ast.AssignStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	analysis.WithStack(body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || starts[info.Uses[id]] == nil {
			return true
		}
		switch p := stack[len(stack)-1].(type) {
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.ValueSpec:
			out[info.Uses[id]] = true
		case *ast.SendStmt:
			if p.Value == ast.Expr(id) {
				out[info.Uses[id]] = true
			}
		case *ast.AssignStmt:
			for i, rhs := range p.Rhs {
				if rhs == ast.Expr(id) && i < len(p.Lhs) {
					if lhs, ok := p.Lhs[i].(*ast.Ident); !ok || lhs.Name != "_" {
						out[info.Uses[id]] = true
					}
				}
			}
		}
		return true
	})
	return out
}
