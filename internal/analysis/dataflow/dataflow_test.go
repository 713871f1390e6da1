package dataflow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"pmsf/internal/analysis/cfg"
	"pmsf/internal/analysis/dataflow"
)

func typecheck(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return fset, f, info
}

func funcNamed(t *testing.T, f *ast.File, name string) *ast.FuncDecl {
	t.Helper()
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == name {
			return fn
		}
	}
	t.Fatalf("no func %s", name)
	return nil
}

func TestSetOps(t *testing.T) {
	a := dataflow.NewSet(1, 2)
	b := dataflow.NewSet(2, 3)
	u := dataflow.Union(a, b)
	if !u.Has(1) || !u.Has(2) || !u.Has(3) || len(u) != 3 {
		t.Errorf("Union = %v", u.Keys())
	}
	if len(a) != 2 || len(b) != 2 {
		t.Errorf("Union mutated inputs: %v %v", a.Keys(), b.Keys())
	}
	if got := dataflow.Union(a, dataflow.NewSet(1)); len(got) != 2 {
		t.Errorf("subset union should be a no-op, got %v", got.Keys())
	}
	i := dataflow.Intersect(a, b)
	if len(i) != 1 || !i.Has(2) {
		t.Errorf("Intersect = %v", i.Keys())
	}
	if !dataflow.EqualSets(a, dataflow.NewSet(2, 1)) || dataflow.EqualSets(a, b) {
		t.Errorf("EqualSets wrong")
	}
	c := a.Clone()
	c.Add(9)
	c.Delete(1)
	if a.Has(9) || !a.Has(1) {
		t.Errorf("Clone shares storage")
	}
}

// TestReachingDefsMerge: both branch definitions reach the use after
// the merge; the pre-branch definition is killed on the reassigning
// path but survives the other.
func TestReachingDefsMerge(t *testing.T) {
	_, f, info := typecheck(t, `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	}
	return x
}`)
	fn := funcNamed(t, f, "f")
	g := cfg.New(fn.Body)
	defs := dataflow.ReachingDefs(g, info)

	var useX *ast.Ident
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			useX = ret.Results[0].(*ast.Ident)
		}
		return true
	})
	ds := defs.Of(useX)
	if len(ds) != 2 {
		t.Fatalf("defs reaching return = %d, want 2", len(ds))
	}
	rhs := map[string]bool{}
	for _, d := range ds {
		rhs[d.Rhs.(*ast.BasicLit).Value] = true
	}
	if !rhs["1"] || !rhs["2"] {
		t.Errorf("reaching rhs = %v, want {1,2}", rhs)
	}
}

// TestReachingDefsLoop: a definition made in a loop body reaches the
// loop condition on the back edge.
func TestReachingDefsLoop(t *testing.T) {
	_, f, info := typecheck(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s = s + i
	}
	return s
}`)
	fn := funcNamed(t, f, "f")
	g := cfg.New(fn.Body)
	defs := dataflow.ReachingDefs(g, info)

	var useS *ast.Ident
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			useS = ret.Results[0].(*ast.Ident)
		}
		return true
	})
	ds := defs.Of(useS)
	if len(ds) != 2 {
		t.Fatalf("defs of s at return = %d, want 2 (init + loop body)", len(ds))
	}
}

// TestReachingDefsMultiAssign: a, b := f() gives both objects the call
// as Rhs; var decls without values have nil Rhs.
func TestReachingDefsMultiAssign(t *testing.T) {
	_, f, info := typecheck(t, `package p
func two() (int, int) { return 1, 2 }
func f() int {
	var z int
	a, b := two()
	z = a + b
	return z
}`)
	fn := funcNamed(t, f, "f")
	g := cfg.New(fn.Body)
	defs := dataflow.ReachingDefs(g, info)

	var useA, useB *ast.Ident
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 {
			return true
		}
		if add, ok := as.Rhs[0].(*ast.BinaryExpr); ok {
			useA = add.X.(*ast.Ident)
			useB = add.Y.(*ast.Ident)
		}
		return true
	})
	for _, use := range []*ast.Ident{useA, useB} {
		ds := defs.Of(use)
		if len(ds) != 1 {
			t.Fatalf("defs of %s = %d, want 1", use.Name, len(ds))
		}
		if _, ok := ds[0].Rhs.(*ast.CallExpr); !ok {
			t.Errorf("Rhs of %s is %T, want *ast.CallExpr", use.Name, ds[0].Rhs)
		}
	}
}

// TestBackwardLiveness exercises the backward solver with a classic
// liveness problem: live-before = (live-after − defs) ∪ uses.
func TestBackwardLiveness(t *testing.T) {
	_, f, info := typecheck(t, `package p
func f(c bool) int {
	x := 1
	y := 2
	if c {
		return x
	}
	return y
}`)
	fn := funcNamed(t, f, "f")
	g := cfg.New(fn.Body)

	transfer := func(n ast.Node, after dataflow.Set[types.Object]) dataflow.Set[types.Object] {
		out := after.Clone()
		for _, d := range dataflow.DefsIn(n, info) {
			out.Delete(d.Obj)
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if o, ok := info.Uses[id].(*types.Var); ok {
					out.Add(o)
				}
			}
			return true
		})
		return out
	}
	res := dataflow.Solve(g, dataflow.Problem[dataflow.Set[types.Object]]{
		Backward: true,
		Join:     dataflow.Union[types.Object],
		Equal:    dataflow.EqualSets[types.Object],
		Transfer: transfer,
	})

	// After `x := 1` both x (taken branch) and y (other branch, defined
	// later... y is NOT yet defined, but liveness asks about uses):
	// live-after(x := 1) must contain x; live-before(x := 1) must not.
	var defX ast.Node
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "x" {
					defX = n
				}
			}
		}
	}
	if defX == nil {
		t.Fatal("x := 1 not found in graph")
	}
	objX := func() types.Object {
		for id, o := range info.Defs {
			if id.Name == "x" {
				return o
			}
		}
		return nil
	}()
	after, ok := res.After(defX)
	if !ok || !after.Has(objX) {
		t.Errorf("x should be live after its definition (ok=%v, set=%v)", ok, after.Keys())
	}
	before, ok := res.Before(defX)
	if !ok || before.Has(objX) {
		t.Errorf("x should be dead before its definition (ok=%v)", ok)
	}
}

// TestObligation runs the release problem on a self-contained resource
// type and checks each finding kind, plus the paths that must stay
// silent: a defer, a release inside a closure argument, a panic path,
// and a value stored for another owner.
func TestObligation(t *testing.T) {
	src := `package p
type res struct{}
func open() *res      { return &res{} }
func (*res) Close()   {}
func (*res) Use()     {}
func run(fn func())   { fn() }
type box struct{ r *res }

func leakOnBranch(c bool) {
	r := open() // leak
	if c {
		r.Close()
	}
}
func earlyReturn(c bool) {
	r := open()
	if c {
		return // return
	}
	r.Close()
}
func overwrite() {
	r := open()
	r = open() // overwrite
	r.Close()
}
func useAfter(c bool) {
	r := open()
	if c {
		r.Close()
	}
	r.Use() // use
	r.Close()
}
func loopBack(xs []int) {
	for _, x := range xs {
		r := open() // leak
		if x < 0 {
			continue
		}
		r.Close()
	}
}
func silent(c bool) *box {
	d := open()
	defer d.Close()
	d.Use()
	l := open()
	run(func() { l.Close() })
	p := open()
	if c {
		panic("bad")
	}
	p.Close()
	s := open()
	return &box{r: s}
}`
	fset, f, info := typecheck(t, src)
	o := &dataflow.Obligation{
		Tracks: func(t types.Type) bool {
			p, ok := t.(*types.Pointer)
			return ok && p.Elem().(*types.Named).Obj().Name() == "res"
		},
		Opens: func(_ *types.Info, call *ast.CallExpr) bool {
			id, ok := call.Fun.(*ast.Ident)
			return ok && id.Name == "open"
		},
		Release:         "Close",
		PerStatement:    true,
		UseAfterRelease: true,
	}
	kinds := map[string]dataflow.FindingKind{
		"leak": dataflow.Leaked, "return": dataflow.ReturnedOpen,
		"overwrite": dataflow.Overwritten, "use": dataflow.UsedAfterRelease,
	}
	want := map[int]dataflow.FindingKind{}
	for i, line := range strings.Split(src, "\n") {
		if _, mark, ok := strings.Cut(line, "// "); ok {
			want[i+1] = kinds[mark]
		}
	}
	got := map[int]dataflow.FindingKind{}
	for _, fd := range o.Check(info, []*ast.File{f}) {
		line := fset.Position(fd.At.Pos()).Line
		if _, dup := got[line]; dup {
			t.Errorf("line %d: duplicate finding", line)
		}
		got[line] = fd.Kind
	}
	for line, k := range want {
		if g, ok := got[line]; !ok || g != k {
			t.Errorf("line %d: finding %v (present %v), want %v", line, g, ok, k)
		}
	}
	for line, k := range got {
		if _, ok := want[line]; !ok {
			t.Errorf("line %d: unexpected finding %v", line, k)
		}
	}
}
