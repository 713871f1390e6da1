package cfg_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"pmsf/internal/analysis/cfg"
)

// build parses src (a complete file), finds the function named name and
// returns its graph dump.
func build(t *testing.T, src, name string) string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == name {
			return cfg.New(fn.Body).Dump(fset)
		}
	}
	t.Fatalf("no function %q in fixture", name)
	return ""
}

// check compares the dump against the golden text, both normalized.
func check(t *testing.T, got, want string) {
	t.Helper()
	norm := func(s string) string {
		var lines []string
		for _, l := range strings.Split(s, "\n") {
			if l = strings.TrimRight(l, " \t"); l != "" {
				lines = append(lines, l)
			}
		}
		return strings.Join(lines, "\n")
	}
	if norm(got) != norm(want) {
		t.Errorf("block graph mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestLabeledBreakContinue(t *testing.T) {
	got := build(t, `package p
func f(xs [][]int) int {
	total := 0
outer:
	for i := 0; i < len(xs); i++ {
		for _, x := range xs[i] {
			if x < 0 {
				break outer
			}
			if x == 0 {
				continue outer
			}
			total += x
		}
	}
	return total
}`, "f")
	check(t, got, `
b0 entry: -> b2
	total := 0
b1 exit:
b2 label: -> b3
	i := 0
b3 for.head: -> b4 b5
	i < len(xs)
b4 for.body: -> b7
b5 for.done: -> b1
	return total
b6 for.post: -> b3
	i++
b7 range.head: -> b8 b9
	_, x := range xs[i]
b8 range.body: -> b10 b11
	x < 0
b9 range.done: -> b6
b10 if.then: -> b5
	break outer
b11 if.done: -> b13 b14
	x == 0
b12 unreachable: -> b11
b13 if.then: -> b6
	continue outer
b14 if.done: -> b7
	total += x
b15 unreachable: -> b14
`)
}

func TestGoto(t *testing.T) {
	got := build(t, `package p
func f(n int) int {
	i := 0
loop:
	if i < n {
		i++
		goto loop
	}
	return i
}`, "f")
	check(t, got, `
b0 entry: -> b2
	i := 0
b1 exit:
b2 label: -> b3 b4
	i < n
b3 if.then: -> b2
	i++
	goto loop
b4 if.done: -> b1
	return i
b5 unreachable: -> b4
`)
}

func TestSelectWithDefault(t *testing.T) {
	got := build(t, `package p
func f(ch chan int, quit chan struct{}) int {
	for {
		select {
		case v := <-ch:
			return v
		case <-quit:
			return 0
		default:
		}
	}
}`, "f")
	check(t, got, `
b0 entry: -> b2
b1 exit:
b2 for.head: -> b3
b3 for.body: -> b6 b8 b10
	select
b4 for.done: -> b1
b5 select.done: -> b2
b6 select.case: -> b1
	v := <-ch
	return v
b7 unreachable: -> b5
b8 select.case: -> b1
	<-quit
	return 0
b9 unreachable: -> b5
b10 select.default: -> b5
`)
	// A select with no default has no edge from the dispatching block
	// to anything but its cases: the statement blocks until one fires.
	got = build(t, `package p
func g(quit chan struct{}) {
	select {
	case <-quit:
	}
}`, "g")
	check(t, got, `
b0 entry: -> b3
	select
b1 exit:
b2 select.done: -> b1
b3 select.case: -> b2
	<-quit
`)
}

func TestDeferredClosureUnlock(t *testing.T) {
	// The deferred closure is a node in its declaring block AND is
	// collected on Graph.Defers; its body is not descended into.
	src := `package p
import "sync"
func f(mu *sync.Mutex, n int) int {
	mu.Lock()
	defer func() {
		mu.Unlock()
	}()
	if n > 0 {
		return n
	}
	return 0
}`
	got := build(t, src, "f")
	check(t, got, `
b0 entry: -> b2 b3
	mu.Lock()
	defer func() { mu.Unlock() }()
	n > 0
b1 exit:
b2 if.then: -> b1
	return n
b3 if.done: -> b1
	return 0
b4 unreachable: -> b3
`)

	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fixture.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	fn := file.Decls[1].(*ast.FuncDecl)
	g := cfg.New(fn.Body)
	if len(g.Defers) != 1 {
		t.Fatalf("Defers = %d, want 1", len(g.Defers))
	}
	if _, ok := g.Defers[0].Call.Fun.(*ast.FuncLit); !ok {
		t.Errorf("deferred call is %T, want *ast.FuncLit", g.Defers[0].Call.Fun)
	}
}

func TestPanicBranch(t *testing.T) {
	got := build(t, `package p
import "os"
func f(n int) int {
	if n < 0 {
		panic("negative")
	}
	if n == 0 {
		os.Exit(2)
	}
	return n
}`, "f")
	check(t, got, `
b0 entry: -> b2 b3
	n < 0
b1 exit:
b2 if.then: -> b1
	panic("negative")
b3 if.done: -> b5 b6
	n == 0
b4 unreachable: -> b3
b5 if.then: -> b1
	os.Exit(2)
b6 if.done: -> b1
	return n
b7 unreachable: -> b6
`)
}

func TestSwitchFallthrough(t *testing.T) {
	got := build(t, `package p
func f(n int) string {
	switch n {
	case 0:
		fallthrough
	case 1:
		return "small"
	default:
		return "big"
	}
}`, "f")
	check(t, got, `
b0 entry: -> b3 b4 b5
	n
b1 exit:
b2 switch.done: -> b1
b3 switch.case: -> b4
	0
	fallthrough
b4 switch.case: -> b1
	1
	return "small"
b5 switch.default: -> b1
	return "big"
b6 unreachable: -> b2
b7 unreachable: -> b2
b8 unreachable: -> b2
`)
}

// TestLoopsRecorded pins the Loop records the ctxdone analyzer uses.
func TestLoopsRecorded(t *testing.T) {
	src := `package p
func f(xs []int) {
	for {
		for _, x := range xs {
			_ = x
		}
	}
}`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fixture.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	fn := file.Decls[0].(*ast.FuncDecl)
	g := cfg.New(fn.Body)
	if len(g.Loops) != 2 {
		t.Fatalf("Loops = %d, want 2", len(g.Loops))
	}
	outer := g.Loops[0]
	if _, ok := outer.Stmt.(*ast.ForStmt); !ok {
		t.Errorf("outer loop is %T, want *ast.ForStmt", outer.Stmt)
	}
	if outer.Head == nil || outer.Body == nil || outer.Follow == nil {
		t.Errorf("outer loop has nil fields: %+v", outer)
	}
	if g.LoopOf(outer.Stmt) != outer {
		t.Errorf("LoopOf does not round-trip")
	}
	preds := g.Preds()
	if len(preds[outer.Head]) < 2 {
		t.Errorf("loop head should have an entry edge and a back edge, got %d preds", len(preds[outer.Head]))
	}
}

// TestInspectOwnPart: a SelectStmt node evaluates none of its cases and
// a RangeStmt node only its range expression; any other node is walked
// whole.
func TestInspectOwnPart(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", `package p
func f(ch chan int, xs []int) {
	select {
	case v := <-ch:
		use(v)
	}
	for _, x := range load(xs) {
		use(x)
	}
	use(len(xs))
}
func load([]int) []int
func use(int)
`, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	calls := func(n ast.Node) string {
		var names []string
		cfg.Inspect(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				names = append(names, call.Fun.(*ast.Ident).Name)
			}
			return true
		})
		return strings.Join(names, ",")
	}
	body := f.Decls[0].(*ast.FuncDecl).Body.List
	for i, want := range []string{"", "load", "use,len"} {
		if got := calls(body[i]); got != want {
			t.Errorf("statement %d evaluates calls %q, want %q", i, got, want)
		}
	}
}
