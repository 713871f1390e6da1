package sorts

import (
	"pmsf/internal/par"
)

// Grouper is a reusable, team-based stable counting sort of int32 keys in [0, k) that writes the
// grouped order and the k+1 segment starts into caller-owned buffers.
// The per-worker count slab is grown on demand and reused, so once a
// run has seen its largest k (the first Borůvka round), subsequent
// Group calls allocate nothing.
type Grouper struct {
	p    int
	team *par.Team

	counts []int64 // per-worker counts, worker-major, p*k in use

	keys   []int32
	k      int
	n      int
	order  []int32
	starts []int64

	countBody   func(int)
	scatterBody func(int)
}

// NewGrouper returns a grouper running its phases on team (of size p).
func NewGrouper(p int, team *par.Team) *Grouper {
	g := &Grouper{p: p, team: team}
	g.countBody = g.countWork
	g.scatterBody = g.scatterWork
	return g
}

// Group computes the stable grouped order of keys (values in [0, k))
// into order (length len(keys)) and the segment boundaries into starts
// (length k+1): group g occupies order[starts[g]:starts[g+1]].
func (g *Grouper) Group(keys []int32, k int, order []int32, starts []int64) {
	g.keys, g.k, g.n, g.order, g.starts = keys, k, len(keys), order, starts
	if need := g.p * k; cap(g.counts) < need {
		g.counts = make([]int64, need)
	} else {
		g.counts = g.counts[:need]
	}
	g.team.Run(g.countBody)
	// Exclusive scan in (group, worker) order: starts per group, then
	// per-worker scatter offsets left in place of the counts.
	var pos int64
	for grp := 0; grp < k; grp++ {
		starts[grp] = pos
		for w := 0; w < g.p; w++ {
			i := w*k + grp
			v := g.counts[i]
			g.counts[i] = pos
			pos += v
		}
	}
	starts[k] = pos
	g.team.Run(g.scatterBody)
	g.keys = nil
}

//msf:noalloc
func (g *Grouper) countWork(w int) {
	lo, hi := par.Block(g.n, g.p, w)
	c := g.counts[w*g.k : (w+1)*g.k]
	for i := range c {
		c[i] = 0
	}
	keys := g.keys
	for i := lo; i < hi; i++ {
		c[keys[i]]++
	}
}

//msf:noalloc
func (g *Grouper) scatterWork(w int) {
	lo, hi := par.Block(g.n, g.p, w)
	off := g.counts[w*g.k : (w+1)*g.k]
	keys, order := g.keys, g.order
	for i := lo; i < hi; i++ {
		k := keys[i]
		order[off[k]] = int32(i)
		off[k]++
	}
}
