package cc

import (
	"pmsf/internal/par"
)

// Resolver runs the connect-components step of a Borůvka round on a
// worker team. Its scratch buffers (the double-buffer spare, the dense
// label output, the per-worker counters) are grown on demand and
// reused, so after the first Borůvka round — the largest n a run will
// ever see — every Resolve call is allocation-free. The returned labels
// slice aliases the resolver's internal buffer and is valid until the
// next call.
type Resolver struct {
	p    int
	team *par.Team

	spare   []int32
	labels  []int32
	wcount  []int64 // per-worker root counts / scatter offsets
	changed []int64 // per-worker jump-round change counts

	// Per-call state read by the prebound worker bodies.
	cur, next []int32
	rootLabel []int32
	n         int

	breakBody       func(int)
	jumpBody        func(int)
	rootCountBody   func(int)
	rootScatterBody func(int)
	labelBody       func(int)
}

// NewResolver returns a resolver running its phases on team (of size p).
func NewResolver(p int, team *par.Team) *Resolver {
	r := &Resolver{
		p:       p,
		team:    team,
		wcount:  make([]int64, p),
		changed: make([]int64, p),
	}
	r.breakBody = r.breakWork
	r.jumpBody = r.jumpWork
	r.rootCountBody = r.rootCountWork
	r.rootScatterBody = r.rootScatterWork
	r.labelBody = r.labelWork
	return r
}

// Resolve runs the complete connect-components step on a
// chosen-neighbor array: break the 2-cycles that minimum-edge selection
// creates (when u and v select each other the smaller id becomes the
// root), pointer-jump every vertex to its root, and relabel roots
// densely. It returns dense component labels (labels[v] in [0,k),
// ordered by root id) and the component count k. parent is consumed as
// scratch and left in a jumped state. Each jump round at least halves
// every vertex's distance to its root, so legal inputs need at most
// ~log2(n) rounds; Resolve panics after bits(n)+2 rounds, which turns a
// cycle longer than 2 in the pointer graph (input find-min can never
// produce) into a loud failure.
func (r *Resolver) Resolve(parent []int32) (labels []int32, k int) {
	n := len(parent)
	if n == 0 {
		return nil, 0
	}
	if cap(r.spare) < n {
		r.spare = make([]int32, n)
		r.labels = make([]int32, n)
	}
	r.n = n
	r.cur, r.next = parent, r.spare[:n]

	r.team.Run(r.breakBody)
	r.cur, r.next = r.next, r.cur

	maxRounds := 2
	for x := n; x > 0; x >>= 1 {
		maxRounds++
	}
	rounds := 0
	for {
		if rounds++; rounds > maxRounds {
			panic("cc: pointer graph contains a cycle longer than 2 (invalid find-min input)")
		}
		r.team.Run(r.jumpBody)
		r.cur, r.next = r.next, r.cur
		var changed int64
		for w := 0; w < r.p; w++ {
			changed += r.changed[w]
		}
		if changed == 0 {
			break
		}
	}

	// Dense root relabel: per-worker root counts, exclusive scan, then a
	// scatter into the spare buffer and a final gather through cur.
	r.team.Run(r.rootCountBody)
	var total int64
	for w := 0; w < r.p; w++ {
		v := r.wcount[w]
		r.wcount[w] = total
		total += v
	}
	k = int(total)
	r.rootLabel = r.next
	r.team.Run(r.rootScatterBody)
	r.team.Run(r.labelBody)
	return r.labels[:n], k
}

//msf:noalloc
func (r *Resolver) breakWork(w int) {
	lo, hi := par.Block(r.n, r.p, w)
	cur, next := r.cur, r.next
	for v := lo; v < hi; v++ {
		t := cur[v]
		if int(cur[t]) == v {
			if int(t) >= v {
				next[v] = int32(v)
			} else {
				next[v] = t
			}
			continue
		}
		next[v] = cur[t]
	}
}

//msf:noalloc
func (r *Resolver) jumpWork(w int) {
	lo, hi := par.Block(r.n, r.p, w)
	cur, next := r.cur, r.next
	var c int64
	for v := lo; v < hi; v++ {
		gp := cur[cur[v]]
		next[v] = gp
		if gp != cur[v] {
			c++
		}
	}
	r.changed[w] = c
}

//msf:noalloc
func (r *Resolver) rootCountWork(w int) {
	lo, hi := par.Block(r.n, r.p, w)
	cur := r.cur
	var c int64
	for v := lo; v < hi; v++ {
		if int(cur[v]) == v {
			c++
		}
	}
	r.wcount[w] = c
}

//msf:noalloc
func (r *Resolver) rootScatterWork(w int) {
	lo, hi := par.Block(r.n, r.p, w)
	cur, rootLabel := r.cur, r.rootLabel
	pos := r.wcount[w]
	for v := lo; v < hi; v++ {
		if int(cur[v]) == v {
			rootLabel[v] = int32(pos)
			pos++
		}
	}
}

//msf:noalloc
func (r *Resolver) labelWork(w int) {
	lo, hi := par.Block(r.n, r.p, w)
	cur, rootLabel, labels := r.cur, r.rootLabel, r.labels
	for v := lo; v < hi; v++ {
		labels[v] = rootLabel[cur[v]]
	}
}
