// Package uf provides union-find (disjoint set union) structures: a
// sequential version with union by rank and path compression for the
// Kruskal baseline and the verification oracle, and a lock-free
// CAS-based version used to merge the subtrees grown concurrently by
// MST-BC before contraction.
package uf

import "sync/atomic"

// UnionFind is the sequential disjoint-set structure.
type UnionFind struct {
	parent []int32
	rank   []int8
	count  int // number of disjoint sets
}

// New returns n singleton sets 0..n-1.
func New(n int) *UnionFind {
	u := &UnionFind{
		parent: make([]int32, n),
		rank:   make([]int8, n),
		count:  n,
	}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

// Find returns the representative of x with path halving.
func (u *UnionFind) Find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// Union merges the sets of x and y; it reports whether a merge happened
// (false when they were already in the same set).
func (u *UnionFind) Union(x, y int32) bool {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return false
	}
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = rx
	if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
	u.count--
	return true
}

// Same reports whether x and y are in one set.
func (u *UnionFind) Same(x, y int32) bool { return u.Find(x) == u.Find(y) }

// Count returns the number of disjoint sets.
func (u *UnionFind) Count() int { return u.count }

// Concurrent is a lock-free union-find safe for use from many goroutines.
// It uses the classic CAS-on-parent scheme with union-by-id (the smaller
// root becomes the parent is NOT required; we always hang the larger id
// under the smaller to guarantee progress and avoid cycles) and path
// halving during finds. Linearizable unions; Find results are roots as of
// some point during the call.
type Concurrent struct {
	parent []atomic.Int32
}

// NewConcurrent returns n concurrent singleton sets.
func NewConcurrent(n int) *Concurrent {
	c := &Concurrent{parent: make([]atomic.Int32, n)}
	for i := range c.parent {
		c.parent[i].Store(int32(i))
	}
	return c
}

// Reset makes c hold n singleton sets again, reusing its storage; n must
// not exceed the size c was created with. It must not run concurrently
// with any other method.
func (c *Concurrent) Reset(n int) {
	c.parent = c.parent[:n]
	for i := range c.parent {
		c.parent[i].Store(int32(i))
	}
}

// Find returns a root of x's set, applying path halving.
func (c *Concurrent) Find(x int32) int32 {
	for {
		p := c.parent[x].Load()
		if p == x {
			return x
		}
		gp := c.parent[p].Load()
		if gp != p {
			// Path halving: best effort, failure is harmless.
			c.parent[x].CompareAndSwap(p, gp)
		}
		x = p
	}
}

// Union merges the sets containing x and y and reports whether a merge
// happened. Roots are ordered by id: the larger root is linked under the
// smaller, which (with CAS) prevents cycles among concurrent unions.
func (c *Concurrent) Union(x, y int32) bool {
	for {
		rx := c.Find(x)
		ry := c.Find(y)
		if rx == ry {
			return false
		}
		if rx > ry {
			rx, ry = ry, rx
		}
		// Link larger root ry under smaller root rx.
		if c.parent[ry].CompareAndSwap(ry, rx) {
			return true
		}
		// ry stopped being a root; retry with fresh roots.
	}
}

// NoEdge is the empty value of a CAS-hook slot: the vertex has not yet
// been linked under another root by UnionEdge.
const NoEdge int32 = -1

// UnionEdge merges the sets containing x and y like Union, but follows
// the GBBS nd.h CAS-hook protocol so the winning edge is recorded: the
// root r that is about to be linked is first claimed by a CompareAndSwap
// of id into hooks[r] (initialized to NoEdge), and only the winner of
// that CAS performs the parent link. Because a root can only stop being
// a root through its hook winner, the subsequent parent store cannot
// race with another link of r, and each vertex hooks at most one edge
// for the whole run — the non-NoEdge entries of hooks at quiescence are
// exactly the ids of a spanning forest of the edges passed in.
//
// All unions on one Concurrent must go through the same protocol: mixing
// UnionEdge and plain Union calls voids the single-linker guarantee.
//
//msf:atomic hooks
func (c *Concurrent) UnionEdge(x, y, id int32, hooks []int32) bool {
	for {
		rx := c.Find(x)
		ry := c.Find(y)
		if rx == ry {
			return false
		}
		if rx > ry {
			rx, ry = ry, rx
		}
		// Claim the larger root ry by hooking the edge id into its slot;
		// the winner (and only the winner) links ry under rx. Losers loop:
		// either ry is mid-link (Find will soon see the new parent) or a
		// different interleaving produced fresh roots.
		if atomic.LoadInt32(&hooks[ry]) == NoEdge &&
			atomic.CompareAndSwapInt32(&hooks[ry], NoEdge, id) {
			c.parent[ry].Store(rx)
			return true
		}
	}
}

// Same reports whether x and y are currently in one set. In the presence
// of concurrent unions the answer is only advisory; callers in this
// library invoke it after all unions have completed.
func (c *Concurrent) Same(x, y int32) bool {
	for {
		rx := c.Find(x)
		ry := c.Find(y)
		if rx == ry {
			return true
		}
		// rx may have been linked under something else meanwhile.
		if c.parent[rx].Load() == rx {
			return false
		}
	}
}

// Len returns the number of elements.
func (c *Concurrent) Len() int { return len(c.parent) }
