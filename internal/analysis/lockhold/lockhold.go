// Package lockhold forbids blocking operations while a sync.Mutex or
// sync.RWMutex is held. A goroutine that parks inside a critical
// section — on a channel, a select with no default, a Team phase
// dispatch, an engine run, or an HTTP response write — extends the
// critical section by an unbounded wait and is one lock-ordering
// mistake away from deadlocking the serve daemon (a Team phase inside a
// lock is the nested-dispatch hazard teamlifecycle guards, with the
// lock as the second resource).
//
// The check is path-sensitive over the cfg package's graphs: the set of
// held mutexes is a forward dataflow fact, so a lock released on one
// branch but not another is tracked per path. Select statements that
// carry a default case do not block (the serve queue's admission and
// publish fast paths rely on exactly this), so their comm sends and
// receives are exempt. `defer mu.Unlock()` is recognized as holding the
// lock until function exit — blocking ops after it still fire, because
// the lock really is held there.
//
// The analysis is intraprocedural: a call to a helper that blocks
// internally is not seen. Goroutine and defer bodies are analyzed as
// their own functions with an empty lock set.
package lockhold

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"pmsf/internal/analysis"
	"pmsf/internal/analysis/cfg"
	"pmsf/internal/analysis/dataflow"
)

const pmsfPath = "pmsf"

// Analyzer is the lockhold analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc: "no blocking operation (channel send/receive, select without default, " +
		"Team phase dispatch, engine invocation, HTTP response write) on any " +
		"path while a sync.Mutex/RWMutex is held",
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
					checkFunc(pass, n.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

// lockOp matches mu.Lock()/RLock()/Unlock()/RUnlock() on a sync mutex
// and returns the lock's identity (the rendered receiver expression)
// and whether the op acquires.
func lockOp(info *types.Info, n ast.Node) (key string, acquire, ok bool) {
	es, isExpr := n.(*ast.ExprStmt)
	if !isExpr {
		return "", false, false
	}
	call, isCall := es.X.(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	tv, hasType := info.Types[sel.X]
	if !hasType || tv.Type == nil {
		return "", false, false
	}
	if !analysis.IsNamed(tv.Type, "sync", "Mutex") && !analysis.IsNamed(tv.Type, "sync", "RWMutex") {
		return "", false, false
	}
	return types.ExprString(sel.X), acquire, true
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	g := cfg.New(body)

	transfer := func(n ast.Node, in dataflow.Set[string]) dataflow.Set[string] {
		key, acquire, ok := lockOp(info, n)
		if !ok {
			return in
		}
		if acquire && !in.Has(key) {
			out := in.Clone()
			out.Add(key)
			return out
		}
		if !acquire && in.Has(key) {
			out := in.Clone()
			out.Delete(key)
			return out
		}
		return in
	}
	res := dataflow.Solve(g, dataflow.Problem[dataflow.Set[string]]{
		Join:     dataflow.Union[string],
		Equal:    dataflow.EqualSets[string],
		Transfer: transfer,
	})

	reported := map[token.Pos]bool{}
	for _, blk := range g.Blocks {
		held := res.In[blk]
		for _, n := range blk.Nodes {
			if len(held) > 0 {
				reportBlocking(pass, n, blk, held, reported)
			}
			held = transfer(n, held)
		}
	}
}

// reportBlocking flags the blocking operations inside node n given the
// held-lock set.
func reportBlocking(pass *analysis.Pass, n ast.Node, blk *cfg.Block, held dataflow.Set[string], reported map[token.Pos]bool) {
	info := pass.TypesInfo

	report := func(pos token.Pos, what string) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		keys := held.Keys()
		sort.Strings(keys)
		pass.Reportf(pos, "%s while %s is held: blocking inside a critical section",
			what, strings.Join(keys, ", "))
	}

	// A select's comm statements block only through the select itself,
	// which is judged by its default-lessness below.
	if blk.Comm != nil && n == blk.Comm {
		return
	}
	switch n := n.(type) {
	case *ast.SelectStmt:
		for _, c := range n.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				return // has a default: never blocks
			}
		}
		report(n.Select, "select with no default case")
		return
	case *ast.RangeStmt:
		if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				report(n.For, "range over a channel")
			}
		}
	case *ast.GoStmt, *ast.DeferStmt:
		// The started goroutine blocks on its own stack; the deferred
		// call runs at exit. Neither blocks here.
		return
	}

	cfg.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			report(m.Arrow, "channel send")
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				report(m.OpPos, "channel receive")
			}
		case *ast.CallExpr:
			if what, ok := blockingCall(info, m); ok {
				report(m.Pos(), what)
			}
		}
		return true
	})
}

// blockingCall classifies calls from the known blocking-op list.
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if name, ok := analysis.TeamPhase(info, call); ok {
		return "Team." + name + " phase dispatch", true
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		name := sel.Sel.Name
		if tv, ok := info.Types[sel.X]; ok && tv.Type != nil {
			switch {
			case analysis.IsNamed(tv.Type, "sync", "WaitGroup") && name == "Wait":
				return "WaitGroup.Wait", true
			case analysis.IsNamed(tv.Type, "net/http", "ResponseWriter") &&
				(name == "Write" || name == "WriteHeader"):
				return "HTTP response write", true
			}
		}
	}
	if pkg, name, ok := analysis.CallPkg(info, call); ok {
		if pkg == pmsfPath && (name == "MinimumSpanningForest" || name == "ConnectedComponents") {
			return "engine invocation pmsf." + name, true
		}
		if pkg == "net/http" && (name == "Error" || name == "NotFound" || name == "Redirect" || name == "ServeFile") {
			return "HTTP response write", true
		}
	}
	return "", false
}
