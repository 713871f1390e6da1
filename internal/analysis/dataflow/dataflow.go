// Package dataflow is a small forward/backward worklist solver over the
// cfg package's block graphs, plus the fact-set, reaching-definitions
// and "must release" (Obligation) problems the msf-lint path analyzers
// share. Like cfg it is the
// stdlib-only analogue of what golang.org/x/tools ships, rebuilt because
// the analysis framework vendors nothing.
//
// A Problem supplies the lattice (Join/Equal), the boundary fact, and a
// per-NODE transfer function; the solver iterates blocks to a fixed
// point and the Result answers "what holds immediately before/after
// this statement" by replaying transfers inside the block — the
// "facts held at program point" queries path-sensitive analyzers need.
package dataflow

import (
	"go/ast"

	"pmsf/internal/analysis/cfg"
)

// Problem describes one dataflow analysis over a cfg.Graph.
//
// Join, Equal and Transfer must treat their arguments as immutable:
// facts are shared between blocks, so a transfer that wants to change
// the fact must return a copy (Set.Clone makes this cheap to get right).
type Problem[F any] struct {
	// Backward runs the analysis against control flow (block facts
	// propagate from successors); Before/After still refer to execution
	// order, not analysis order.
	Backward bool
	// Boundary is the fact at the graph's entry (exit when Backward).
	Boundary F
	// Init is the initial fact everywhere else — the lattice bottom.
	Init F
	// Join merges facts at control-flow merges. Must be monotone,
	// commutative, and must not mutate its arguments.
	Join func(a, b F) F
	// Equal reports lattice equality; the solver stops when a pass
	// changes nothing.
	Equal func(a, b F) bool
	// Transfer produces the fact after executing one block node given
	// the fact before it (flipped when Backward). Must not mutate in.
	Transfer func(n ast.Node, in F) F
}

// Result holds the per-block fixed point and answers per-node queries.
type Result[F any] struct {
	// In and Out are the facts at block entry and block exit, in
	// execution order regardless of analysis direction.
	In, Out map[*cfg.Block]F

	p       Problem[F]
	blockOf map[ast.Node]*cfg.Block
}

// Solve runs p over g to a fixed point.
func Solve[F any](g *cfg.Graph, p Problem[F]) *Result[F] {
	r := &Result[F]{
		In:      make(map[*cfg.Block]F, len(g.Blocks)),
		Out:     make(map[*cfg.Block]F, len(g.Blocks)),
		p:       p,
		blockOf: make(map[ast.Node]*cfg.Block),
	}
	for _, b := range g.Blocks {
		r.In[b] = p.Init
		r.Out[b] = p.Init
		for _, n := range b.Nodes {
			r.blockOf[n] = b
		}
	}

	// edges in analysis direction: from -> to
	next := make(map[*cfg.Block][]*cfg.Block, len(g.Blocks))
	prev := make(map[*cfg.Block][]*cfg.Block, len(g.Blocks))
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if p.Backward {
				next[s] = append(next[s], b)
				prev[b] = append(prev[b], s)
			} else {
				next[b] = append(next[b], s)
				prev[s] = append(prev[s], b)
			}
		}
	}
	boundary := g.Entry
	if p.Backward {
		boundary = g.Exit
	}

	// in/out in ANALYSIS direction; mapped back to execution order at
	// the end.
	ain := make(map[*cfg.Block]F, len(g.Blocks))
	aout := make(map[*cfg.Block]F, len(g.Blocks))
	for _, b := range g.Blocks {
		ain[b] = p.Init
		aout[b] = p.Init
	}
	ain[boundary] = p.Boundary

	work := make([]*cfg.Block, len(g.Blocks))
	copy(work, g.Blocks)
	queued := make(map[*cfg.Block]bool, len(g.Blocks))
	for _, b := range work {
		queued[b] = true
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false

		in := ain[b]
		if b != boundary {
			preds := prev[b]
			if len(preds) > 0 {
				in = aout[preds[0]]
				for _, pb := range preds[1:] {
					in = p.Join(in, aout[pb])
				}
			}
		}
		ain[b] = in
		out := r.transferBlock(b, in)
		if !p.Equal(out, aout[b]) {
			aout[b] = out
			for _, s := range next[b] {
				if !queued[s] {
					queued[s] = true
					work = append(work, s)
				}
			}
		}
	}

	for _, b := range g.Blocks {
		if p.Backward {
			r.In[b], r.Out[b] = aout[b], ain[b]
		} else {
			r.In[b], r.Out[b] = ain[b], aout[b]
		}
	}
	return r
}

// transferBlock applies the node transfers of b in analysis order.
func (r *Result[F]) transferBlock(b *cfg.Block, in F) F {
	f := in
	if r.p.Backward {
		for i := len(b.Nodes) - 1; i >= 0; i-- {
			f = r.p.Transfer(b.Nodes[i], f)
		}
	} else {
		for _, n := range b.Nodes {
			f = r.p.Transfer(n, f)
		}
	}
	return f
}

// Before returns the fact holding immediately before n executes. n must
// be a block-level node (a member of some Block.Nodes); use cfg's block
// structure — or BlockNode — to map nested expressions to their
// statement first.
func (r *Result[F]) Before(n ast.Node) (F, bool) {
	return r.at(n, false)
}

// After returns the fact holding immediately after n executes.
func (r *Result[F]) After(n ast.Node) (F, bool) {
	return r.at(n, true)
}

func (r *Result[F]) at(n ast.Node, after bool) (F, bool) {
	b, ok := r.blockOf[n]
	if !ok {
		var zero F
		return zero, false
	}
	// Replay forward from block entry (or backward from block exit)
	// until the node is reached.
	if r.p.Backward {
		f := r.Out[b] // analysis-direction input
		for i := len(b.Nodes) - 1; i >= 0; i-- {
			if b.Nodes[i] == n {
				if after {
					return f, true // fact after n in execution order
				}
				return r.p.Transfer(n, f), true
			}
			f = r.p.Transfer(b.Nodes[i], f)
		}
		return f, false
	}
	f := r.In[b]
	for _, m := range b.Nodes {
		if m == n {
			if after {
				return r.p.Transfer(n, f), true
			}
			return f, true
		}
		f = r.p.Transfer(m, f)
	}
	return f, false
}

// Block returns the block holding block-level node n, or nil.
func (r *Result[F]) Block(n ast.Node) *cfg.Block { return r.blockOf[n] }
