package pmsf

import "math"

// Fingerprint returns a deterministic 64-bit digest of a graph: the
// vertex count, the edge count, and every edge's endpoints and exact
// weight bits, in edge order. Two graphs have the same fingerprint iff
// they have the same N and the same edge list (same order, same
// endpoint orientation, bit-identical weights) — exactly the inputs for
// which every engine in this library computes the same forest. It is
// the graph half of the forest-cache key used by the msf-serve service
// and is reusable anywhere a content address for a parsed graph is
// needed (bench baselines, verify manifests).
//
// The hash is FNV-1a over the 64-bit words of the encoding; it is
// stable across processes and architectures (no map iteration, no
// pointers, no float formatting).
func Fingerprint(g *Graph) uint64 {
	h := fnvOffset
	h = fnvWord(h, uint64(g.N))
	h = fnvWord(h, uint64(len(g.Edges)))
	for _, e := range g.Edges {
		h = fnvWord(h, uint64(uint32(e.U))<<32|uint64(uint32(e.V)))
		h = fnvWord(h, math.Float64bits(e.W))
	}
	return h
}

// HashOptions digests the parts of (algorithm, Options) that select
// what a run computes and how: the algorithm, worker count, MST-BC base
// size, seed, and Bor-EL sort engine. Instrumentation switches (Trace,
// Metrics) are deliberately excluded — they do
// not change the forest, so cached results remain valid across them.
// Together with Fingerprint it forms a well-defined cache key:
// identical (graph, algorithm, options) requests collide, anything
// semantically different does not (modulo 64-bit hash collisions).
func HashOptions(algo Algorithm, opt Options) uint64 {
	h := fnvOffset
	h = fnvWord(h, uint64(algo))
	h = fnvWord(h, uint64(opt.Workers))
	h = fnvWord(h, uint64(opt.BaseSize))
	h = fnvWord(h, opt.Seed)
	h = fnvWord(h, uint64(opt.SortEngine))
	return h
}

// FNV-1a 64-bit, applied bytewise to little-endian 64-bit words.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime
		w >>= 8
	}
	return h
}
