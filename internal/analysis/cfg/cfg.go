// Package cfg builds per-function control-flow graphs from go/ast for
// the msf-lint dataflow analyzers. It is the stdlib-only analogue of
// golang.org/x/tools/go/cfg, rebuilt here (like the rest of
// internal/analysis) because the repository vendors no third-party code.
//
// The graph is purely syntactic: a Block holds the statements and
// control expressions executed straight-line, in order, and Succs are
// the possible continuations. Branches (if/for/range/switch/select),
// labeled break/continue, goto, fallthrough, and panicking/terminating
// calls (panic, os.Exit, log.Fatal*, runtime.Goexit) all produce edges;
// defer statements are additionally collected on the Graph so analyzers
// can process the deferred calls at function exit, where they run.
//
// Select statements get one node for the SelectStmt itself (in the
// block that reaches it — its blocking-ness is what lockhold inspects)
// and one successor block per case whose first node is the case's comm
// statement; that comm is also exposed as Block.Comm so analyzers can
// tell "the receive that fired" apart from a free-standing blocking
// receive.
package cfg

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"sort"
	"strings"
)

// Block is one straight-line run of nodes.
type Block struct {
	Index int
	// Kind names what created the block: entry, exit, if.then, if.else,
	// if.done, for.head, for.body, for.post, for.done, range.head,
	// range.body, range.done, switch.case, switch.default, switch.done,
	// select.case, select.default, select.done, label, unreachable.
	Kind string
	// Comm is the comm statement of a select.case block (also its first
	// node), nil for every other kind.
	Comm ast.Stmt
	// Nodes are the statements and control expressions of the block in
	// execution order. Condition expressions of if/for appear as bare
	// ast.Expr nodes; a RangeStmt or SelectStmt appears as its own node
	// in the head block (bodies are in successor blocks).
	Nodes []ast.Node
	Succs []*Block
}

// Loop records one for/range loop's skeleton.
type Loop struct {
	// Stmt is the *ast.ForStmt or *ast.RangeStmt.
	Stmt ast.Stmt
	// Head is the block back edges land on (condition/range block).
	Head *Block
	// Body is the loop body's entry block.
	Body *Block
	// Follow is where break (and a false condition) lands.
	Follow *Block
}

// Graph is the CFG of one function body.
type Graph struct {
	Entry, Exit *Block
	Blocks      []*Block
	// Defers lists every defer statement in source order; the deferred
	// calls run at Exit in LIFO order.
	Defers []*ast.DeferStmt
	// Loops lists every for/range loop, outermost first.
	Loops []*Loop

	loopOf map[ast.Stmt]*Loop
}

// LoopOf returns the Loop record of a ForStmt/RangeStmt, or nil.
func (g *Graph) LoopOf(s ast.Stmt) *Loop { return g.loopOf[s] }

// Preds computes the predecessor lists of every block.
func (g *Graph) Preds() map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(g.Blocks))
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

// New builds the CFG of body. body may come from a FuncDecl or a
// FuncLit; nested function literals are NOT descended into (each gets
// its own graph via its own New call).
func New(body *ast.BlockStmt) *Graph {
	b := &builder{
		g:      &Graph{loopOf: map[ast.Stmt]*Loop{}},
		labels: map[string]*Block{},
	}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	b.stmts(body.List)
	// A function whose last statement terminated leaves the builder
	// parked on an empty unreachable stub; drop it rather than give it
	// an exit edge.
	if b.cur.Kind == "unreachable" && len(b.cur.Nodes) == 0 && len(b.cur.Succs) == 0 &&
		len(b.g.Blocks) > 0 && b.g.Blocks[len(b.g.Blocks)-1] == b.cur {
		b.g.Blocks = b.g.Blocks[:len(b.g.Blocks)-1]
	} else {
		b.jump(b.g.Exit)
	}
	return b.g
}

// target is one enclosing breakable/continuable construct.
type target struct {
	label   string
	breakTo *Block
	contTo  *Block // nil for switch/select
}

type builder struct {
	g            *Graph
	cur          *Block
	targets      []target
	labels       map[string]*Block // goto/label targets, created on demand
	pendingLabel string
	fallTo       *Block // fallthrough target inside a switch case
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// jump links the current block to blk (no-op when cur already ended in
// a terminator and was replaced by an unreachable stub — those still
// get the edge; unreachable stubs simply have no predecessors).
func (b *builder) jump(blk *Block) { edge(b.cur, blk) }

// terminated parks the builder on a fresh predecessor-less block after
// return/goto/break/panic.
func (b *builder) terminated() { b.cur = b.newBlock("unreachable") }

// labelBlock returns (creating on demand) the block a label names.
func (b *builder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock("label")
	b.labels[name] = blk
	return blk
}

func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.jump(lb)
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, s.Cond)
		head := b.cur
		then := b.newBlock("if.then")
		done := b.newBlock("if.done")
		els := done
		if s.Else != nil {
			els = b.newBlock("if.else")
		}
		edge(head, then)
		edge(head, els)
		b.cur = then
		b.stmts(s.Body.List)
		b.jump(done)
		if s.Else != nil {
			b.cur = els
			b.stmt(s.Else)
			b.jump(done)
		}
		b.cur = done

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		head := b.newBlock("for.head")
		b.jump(head)
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			edge(head, body)
			edge(head, done)
		} else {
			edge(head, body)
		}
		contTo := head
		if post != nil {
			contTo = post
		}
		lp := &Loop{Stmt: s, Head: head, Body: body, Follow: done}
		b.g.Loops = append(b.g.Loops, lp)
		b.g.loopOf[s] = lp
		b.targets = append(b.targets, target{label: label, breakTo: done, contTo: contTo})
		b.cur = body
		b.stmts(s.Body.List)
		b.jump(contTo)
		if post != nil {
			b.cur = post
			b.cur.Nodes = append(b.cur.Nodes, s.Post)
			b.jump(head)
		}
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = done

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock("range.head")
		head.Nodes = append(head.Nodes, s)
		b.jump(head)
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		edge(head, body)
		edge(head, done)
		lp := &Loop{Stmt: s, Head: head, Body: body, Follow: done}
		b.g.Loops = append(b.g.Loops, lp)
		b.g.loopOf[s] = lp
		b.targets = append(b.targets, target{label: label, breakTo: done, contTo: head})
		b.cur = body
		b.stmts(s.Body.List)
		b.jump(head)
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = done

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		if s.Tag != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Tag)
		}
		b.switchBody(label, s.Body, nil)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, s.Assign)
		b.switchBody(label, s.Body, nil)

	case *ast.SelectStmt:
		label := b.takeLabel()
		b.cur.Nodes = append(b.cur.Nodes, s)
		head := b.cur
		done := b.newBlock("select.done")
		b.targets = append(b.targets, target{label: label, breakTo: done})
		hasDefault := false
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			kind := "select.case"
			if cc.Comm == nil {
				kind = "select.default"
				hasDefault = true
			}
			blk := b.newBlock(kind)
			blk.Comm = cc.Comm
			if cc.Comm != nil {
				blk.Nodes = append(blk.Nodes, cc.Comm)
			}
			edge(head, blk)
			b.cur = blk
			b.stmts(cc.Body)
			b.jump(done)
		}
		if len(s.Body.List) == 0 {
			// select {} blocks forever: no successors out of head.
			_ = hasDefault
		}
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = done

	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.jump(b.g.Exit)
		b.terminated()

	case *ast.BranchStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(s.Label, false); t != nil {
				b.jump(t.breakTo)
			}
			b.terminated()
		case token.CONTINUE:
			if t := b.findTarget(s.Label, true); t != nil {
				b.jump(t.contTo)
			}
			b.terminated()
		case token.GOTO:
			b.jump(b.labelBlock(s.Label.Name))
			b.terminated()
		case token.FALLTHROUGH:
			if b.fallTo != nil {
				b.jump(b.fallTo)
			}
			b.terminated()
		}

	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		b.cur.Nodes = append(b.cur.Nodes, s)

	case *ast.ExprStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		if call, ok := s.X.(*ast.CallExpr); ok && IsTerminalCall(call) {
			b.jump(b.g.Exit)
			b.terminated()
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// AssignStmt, DeclStmt, IncDecStmt, GoStmt, SendStmt, ...
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

// switchBody builds the case blocks of a (type) switch. The head is the
// current block; each clause gets its own block whose first nodes are
// the clause expressions.
func (b *builder) switchBody(label string, body *ast.BlockStmt, _ *Block) {
	head := b.cur
	done := b.newBlock("switch.done")
	b.targets = append(b.targets, target{label: label, breakTo: done})

	clauses := make([]*ast.CaseClause, 0, len(body.List))
	for _, c := range body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		kind := "switch.case"
		if cc.List == nil {
			kind = "switch.default"
			hasDefault = true
		}
		blocks[i] = b.newBlock(kind)
		for _, e := range cc.List {
			blocks[i].Nodes = append(blocks[i].Nodes, e)
		}
		edge(head, blocks[i])
	}
	savedFall := b.fallTo
	for i, cc := range clauses {
		if i+1 < len(blocks) {
			b.fallTo = blocks[i+1]
		} else {
			b.fallTo = done
		}
		b.cur = blocks[i]
		b.stmts(cc.Body)
		b.jump(done)
	}
	b.fallTo = savedFall
	if !hasDefault {
		edge(head, done)
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = done
}

// findTarget resolves a break/continue to its enclosing construct.
func (b *builder) findTarget(label *ast.Ident, needCont bool) *target {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := &b.targets[i]
		if label != nil {
			if t.label == label.Name && (!needCont || t.contTo != nil) {
				return t
			}
			continue
		}
		if needCont && t.contTo == nil {
			continue
		}
		return t
	}
	return nil
}

// Inspect walks, as ast.Inspect does, the part of block node n that
// executes at n. A SelectStmt node executes nothing of its own: each
// comm statement heads its case's block. A RangeStmt node evaluates
// only its range expression: the body is in successor blocks. Every
// other node is walked whole.
func Inspect(n ast.Node, f func(ast.Node) bool) {
	switch s := n.(type) {
	case *ast.SelectStmt:
		return
	case *ast.RangeStmt:
		n = s.X
	}
	ast.Inspect(n, f)
}

// IsTerminalCall reports whether call never returns: the panic builtin
// and the conventional process/goroutine terminators. Syntactic only —
// an import renamed away from "os"/"log"/"runtime" defeats it, which is
// acceptable for a lint CFG (the result is extra, not missing, paths).
func IsTerminalCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fun.Sel.Name {
		case "os.Exit", "runtime.Goexit",
			"log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}

// Dump renders the graph as stable text for golden tests and debugging:
// one paragraph per block, nodes rendered compactly via go/printer.
func (g *Graph) Dump(fset *token.FileSet) string {
	var sb strings.Builder
	blocks := append([]*Block(nil), g.Blocks...)
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Index < blocks[j].Index })
	for _, b := range blocks {
		fmt.Fprintf(&sb, "b%d %s:", b.Index, b.Kind)
		if len(b.Succs) > 0 {
			succ := make([]string, len(b.Succs))
			for i, s := range b.Succs {
				succ[i] = fmt.Sprintf("b%d", s.Index)
			}
			fmt.Fprintf(&sb, " -> %s", strings.Join(succ, " "))
		}
		sb.WriteByte('\n')
		for _, n := range b.Nodes {
			fmt.Fprintf(&sb, "\t%s\n", renderNode(fset, n))
		}
	}
	return sb.String()
}

// renderNode prints one node on one line, truncated; composite
// statements that own successor blocks get short custom forms.
func renderNode(fset *token.FileSet, n ast.Node) string {
	switch n := n.(type) {
	case *ast.RangeStmt:
		head := "range " + renderNode(fset, n.X)
		switch {
		case n.Key != nil && n.Value != nil:
			head = renderNode(fset, n.Key) + ", " + renderNode(fset, n.Value) + " := " + head
		case n.Key != nil:
			head = renderNode(fset, n.Key) + " := " + head
		}
		return head
	case *ast.SelectStmt:
		return "select"
	case *ast.DeferStmt:
		return "defer " + renderNode(fset, n.Call)
	case *ast.GoStmt:
		return "go " + renderNode(fset, n.Call)
	}
	var buf strings.Builder
	cfgPrinter.Fprint(&buf, fset, n)
	out := strings.Join(strings.Fields(buf.String()), " ")
	const max = 60
	if len(out) > max {
		out = out[:max] + "…"
	}
	return out
}

var cfgPrinter = printer.Config{Mode: printer.RawFormat}
