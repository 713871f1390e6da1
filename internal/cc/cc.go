// Package cc implements connected components on shared memory. Resolver
// is the connect-components step of the Borůvka iteration: given each
// supervertex's chosen minimum edge as a pointer to its other endpoint,
// the pseudo-forest is collapsed by pointer jumping, and the resulting
// roots are relabelled to a dense range. SV and UnionFind compute the
// components of a whole graph and end in a relabel of the same kind.
//
// Resolver's parallel phases are double-buffered (workers read one
// generation and write only their own indices of the next), so it is
// free of data races by construction, not merely benign ones. SV hooks
// and jumps in place through atomic loads, stores and CAS instead.
package cc

import (
	"pmsf/internal/par"
)

// relabel converts, on team, a root-per-vertex array (root[root[v]] ==
// root[v]) into dense labels in [0, k) ordered by root id, so the labels
// are deterministic. rootLabel is n-long scratch and is overwritten.
func relabel(team *par.Team, root, rootLabel []int32) ([]int32, int) {
	n := len(root)
	roots := team.PackIndices(n, func(i int) bool { return int(root[i]) == i })
	k := len(roots)
	team.For(k, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			rootLabel[roots[i]] = int32(i)
		}
	})
	labels := make([]int32, n)
	team.For(n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			labels[v] = rootLabel[root[v]]
		}
	})
	return labels, k
}
