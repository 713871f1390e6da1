package cc

// Connected components of whole undirected graphs — the first of the
// follow-on problems the paper's conclusion targets ("we plan to apply
// the techniques discussed in this paper to ... connected components").
// Two algorithms are provided:
//
//   - SV: the Shiloach-Vishkin style algorithm built from the same
//     primitives as the Borůvka variants — rounds of hooking (each vertex
//     grafts its root onto a neighbouring smaller root) followed by
//     pointer-jumping shortcuts.
//   - UnionFind: edge-parallel lock-free union-find, typically faster in
//     practice, used as the cross-check.
//
// Both end in relabel, which orders dense labels by root id as
// Resolver does, and return dense component labels and the component
// count.

import (
	"sync/atomic"

	"pmsf/internal/graph"
	"pmsf/internal/par"
	"pmsf/internal/uf"
)

// UnionFind computes components by unioning every edge into a lock-free
// union-find with p workers.
func UnionFind(g *graph.EdgeList, p int) (labels []int32, k int) {
	if p <= 0 {
		p = par.DefaultWorkers()
	}
	team := par.NewTeam(p)
	defer team.Close()
	u := uf.NewConcurrent(g.N)
	team.For(len(g.Edges), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := g.Edges[i]
			if e.U != e.V {
				u.Union(e.U, e.V)
			}
		}
	})
	root := make([]int32, g.N)
	team.For(g.N, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			root[v] = u.Find(int32(v))
		}
	})
	return relabel(team, root, make([]int32, g.N))
}

// SV computes components with hooking + pointer jumping. parent[v]
// converges to the minimum vertex id of v's component, giving
// deterministic labels independent of p.
func SV(g *graph.EdgeList, p int) (labels []int32, k int) {
	if p <= 0 {
		p = par.DefaultWorkers()
	}
	n := g.N
	parent := make([]int32, n)
	for v := range parent {
		parent[v] = int32(v)
	}
	if n == 0 {
		return nil, 0
	}
	team := par.NewTeam(p)
	defer team.Close()
	for {
		// Hooking: for every edge (u,v), try to hang the larger root
		// under the smaller. CAS keeps each write consistent; losing a
		// race just defers the hook to the next round.
		var hooked atomic.Int64
		team.For(len(g.Edges), func(_, lo, hi int) {
			var c int64
			for i := lo; i < hi; i++ {
				e := g.Edges[i]
				if e.U == e.V {
					continue
				}
				ru := atomic.LoadInt32(&parent[e.U])
				rv := atomic.LoadInt32(&parent[e.V])
				if ru == rv {
					continue
				}
				// Only roots may be hooked, and only onto smaller ids —
				// this keeps the structure acyclic.
				small, big := ru, rv
				if small > big {
					small, big = big, small
				}
				if atomic.CompareAndSwapInt32(&parent[big], big, small) {
					c++
				}
			}
			hooked.Add(c)
		})
		// Shortcutting: full pointer jumping to the roots.
		for {
			var changed atomic.Int64
			team.For(n, func(_, lo, hi int) {
				var c int64
				for v := lo; v < hi; v++ {
					pv := atomic.LoadInt32(&parent[v])
					gp := atomic.LoadInt32(&parent[pv])
					if gp != pv {
						atomic.StoreInt32(&parent[v], gp)
						c++
					}
				}
				changed.Add(c)
			})
			if changed.Load() == 0 {
				break
			}
		}
		if hooked.Load() == 0 {
			break
		}
	}
	return relabel(team, parent, make([]int32, n))
}
