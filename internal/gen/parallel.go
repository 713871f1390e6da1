package gen

import (
	"sort"

	"pmsf/internal/graph"
	"pmsf/internal/par"
	"pmsf/internal/rng"
)

// RandomParallel generates a G(n, m) random graph using p workers. The
// result is deterministic in (n, m, seed) and INDEPENDENT of p: workers
// draw from fixed per-shard xoshiro streams (derived by jumps from the
// seed), shards are deduplicated globally, and the same top-up stream
// resolves collisions. The distribution matches Random's (uniform unique
// edges), though the concrete graph for a given seed differs from
// Random's.
//
// Use it for the paper-scale 1M-vertex/20M-edge inputs where sequential
// generation becomes a noticeable fraction of experiment time.
func RandomParallel(n, m int, seed uint64, p int) *graph.EdgeList {
	if n < 2 {
		return &graph.EdgeList{N: n}
	}
	maxM := int64(n) * int64(n-1) / 2
	if int64(m) > maxM {
		panic("gen: m exceeds the maximum possible edge count")
	}
	if p <= 0 {
		p = par.DefaultWorkers()
	}
	team := par.NewTeam(p)
	defer team.Close()
	const shards = 64 // fixed shard count keeps the output p-independent
	base := rng.New(seed)
	streams := make([]*rng.Xoshiro256, shards)
	for i := range streams {
		streams[i] = base.Split()
	}

	perShard := m/shards + 1
	shardKeys := make([][]uint64, shards)
	team.ForDynamic(shards, 1, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			r := streams[s]
			keys := make([]uint64, 0, perShard+perShard/8)
			for len(keys) < perShard {
				u := r.Intn(n)
				v := r.Intn(n - 1)
				if v >= u {
					v++
				}
				if u > v {
					u, v = v, u
				}
				keys = append(keys, uint64(u)<<32|uint64(v))
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			shardKeys[s] = dedupeUint64(keys)
		}
	})

	// Merge shards (sorted) and dedupe across shards.
	merged := shardKeys[0]
	for s := 1; s < shards; s++ {
		merged = mergeSortedUint64(merged, shardKeys[s])
	}

	// Top up (or trim) to exactly m unique edges using the base stream.
	for len(merged) < m {
		need := m - len(merged)
		extra := make([]uint64, 0, need+need/4+8)
		for len(extra) < need+need/4+8 {
			u := base.Intn(n)
			v := base.Intn(n - 1)
			if v >= u {
				v++
			}
			if u > v {
				u, v = v, u
			}
			extra = append(extra, uint64(u)<<32|uint64(v))
		}
		sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
		merged = mergeSortedUint64(merged, dedupeUint64(extra))
	}
	if len(merged) > m {
		base.ShuffleUint64(merged)
		merged = merged[:m]
		sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	}

	// Weights are derived from each edge's key so they are independent of
	// both p and the merge order.
	edges := make([]graph.Edge, m)
	team.For(m, func(_, lo, hi int) {
		// Each worker owns a contiguous range; weights must not depend on
		// the range split, so derive them from the edge key itself.
		for i := lo; i < hi; i++ {
			k := merged[i]
			edges[i] = graph.Edge{
				U: int32(k >> 32),
				V: int32(k & 0xffffffff),
				W: keyWeight(k, seed),
			}
		}
	})
	return &graph.EdgeList{N: n, Edges: edges}
}

// keyWeight derives a uniform [0,1) weight deterministically from the
// edge key and seed (splitmix64 finalizer).
func keyWeight(key, seed uint64) float64 {
	z := key ^ (seed * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// mergeSortedUint64 merges two sorted unique slices into a sorted unique
// slice.
func mergeSortedUint64(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
