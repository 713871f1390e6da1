// Package cc implements connected components on shared memory. Resolve
// (and its team-based twin Resolver) is the connect-components step of
// the Borůvka iteration: given each supervertex's chosen minimum edge as
// a pointer to its other endpoint, the pseudo-forest is collapsed by
// pointer jumping, and the resulting roots are relabelled to a dense
// range. SV and UnionFind compute the components of a whole graph and
// end in the same relabel.
//
// Resolve's parallel phases are double-buffered (workers read one
// generation and write only their own indices of the next), so it is
// free of data races by construction, not merely benign ones. SV hooks
// and jumps in place through atomic loads, stores and CAS instead.
package cc

import (
	"pmsf/internal/par"
)

// Resolve runs the complete connect-components step on a chosen-neighbor
// array: break the 2-cycles that minimum-edge selection creates (when u
// and v select each other the smaller id becomes the root), pointer-jump
// every vertex to its root, and relabel roots densely. It returns dense
// component labels (labels[v] in [0,k)) and the component count k.
// parent is consumed as scratch and left in a jumped state.
func Resolve(p int, parent []int32) (labels []int32, k int) {
	n := len(parent)
	if n == 0 {
		return nil, 0
	}
	cur := parent
	next := make([]int32, n)

	// Round 0: break mutual pairs while performing the first jump.
	par.For(p, n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			w := cur[v]
			if int(cur[w]) == v {
				// Mutual pair (or self-loop): smaller id becomes root.
				if int(w) >= v {
					next[v] = int32(v)
				} else {
					next[v] = w
				}
				continue
			}
			next[v] = cur[w]
		}
	})
	cur, next = next, cur

	// Jump rounds until a fixpoint: cur[v] == cur[cur[v]] everywhere.
	// Each round at least halves every vertex's distance to its root, so
	// legal inputs need at most ~log2(n) rounds; the cap turns a
	// violated precondition (a cycle longer than 2 in the pointer graph,
	// which find-min can never produce) into a loud failure.
	maxRounds := 2
	for x := n; x > 0; x >>= 1 {
		maxRounds++
	}
	rounds := 0
	for {
		if rounds++; rounds > maxRounds {
			panic("cc: pointer graph contains a cycle longer than 2 (invalid find-min input)")
		}
		changed := par.ReduceInt64(p, n, func(_, lo, hi int) int64 {
			var c int64
			for v := lo; v < hi; v++ {
				gp := cur[cur[v]]
				next[v] = gp
				if gp != cur[v] {
					c++
				}
			}
			return c
		})
		cur, next = next, cur
		if changed == 0 {
			break
		}
	}

	return relabel(p, cur, next) // reuse the spare buffer
}

// relabel converts a root-per-vertex array (root[root[v]] == root[v])
// into dense labels in [0, k) ordered by root id, so the labels are
// deterministic. rootLabel is n-long scratch and is overwritten.
func relabel(p int, root, rootLabel []int32) ([]int32, int) {
	n := len(root)
	roots := par.PackIndices(p, n, func(i int) bool { return int(root[i]) == i })
	k := len(roots)
	par.For(p, k, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			rootLabel[roots[i]] = int32(i)
		}
	})
	labels := make([]int32, n)
	par.For(p, n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			labels[v] = rootLabel[root[v]]
		}
	})
	return labels, k
}

// JumpRounds reports how many jump rounds Resolve would need for the
// given chosen-neighbor array without modifying it; exported for tests
// and the cost-model validation (pointer jumping is O(log n) rounds).
func JumpRounds(p int, parent []int32) int {
	cur := make([]int32, len(parent))
	copy(cur, parent)
	next := make([]int32, len(parent))
	par.For(p, len(cur), func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			w := cur[v]
			if int(cur[w]) == v {
				if int(w) >= v {
					next[v] = int32(v)
				} else {
					next[v] = w
				}
				continue
			}
			next[v] = cur[w]
		}
	})
	cur, next = next, cur
	rounds := 1
	for {
		changed := par.ReduceInt64(p, len(cur), func(_, lo, hi int) int64 {
			var c int64
			for v := lo; v < hi; v++ {
				gp := cur[cur[v]]
				next[v] = gp
				if gp != cur[v] {
					c++
				}
			}
			return c
		})
		cur, next = next, cur
		rounds++
		if changed == 0 {
			return rounds
		}
	}
}
