package sorts

// The weight sorter is the base case of Bor-CAS's Filter-Kruskal: a
// stable parallel LSD radix sort of working edges by weight. It shares
// the Compactor's count / transposed-scan / scatter scheme on a
// different key: WeightKey maps a float64 weight to a uint64 whose
// unsigned order is the numeric order. Only the bits that differ
// between the input's keys are sorted on — a per-worker AND/OR
// reduction finds them — so integer, quantized and tied weights fit one
// digit and take one pass, while distinct float weights vary in 53 or
// more bits and take five or six.
//
// Every pass is stable, so an input in ID order comes out in the
// canonical (W, ID) order without the ID being part of the key.

import (
	"math"
	"math/bits"

	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/par"
)

// weightDigitBits caps the digit width of a pass: past it the
// scatter's write streams outgrow the cache.
const weightDigitBits = 11

// minDigitBits floors the digit width: below it the pass count grows
// faster than the histogram shrinks.
const minDigitBits = 6

// weightDigits is the digit width for m elements: about two elements a
// digit, within [minDigitBits, weightDigitBits].
func weightDigits(m int) uint {
	return min(max(uint(bits.Len(uint(m))), minDigitBits+1)-1, weightDigitBits)
}

// WeightKey returns the order-preserving unsigned key of weight w: the
// IEEE-754 bits with the sign bit set for non-negative values and every
// bit flipped for negative ones, so unsigned key order is numeric
// order, ±Inf included. −0 is folded onto +0 (the two compare equal,
// so they must share a key). NaN is not a valid edge weight.
//
//msf:noalloc
func WeightKey(w float64) uint64 {
	if w == 0 {
		return 1 << 63
	}
	b := math.Float64bits(w)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// WeightSorter is the reusable parallel radix sort of working edges by
// WeightKey(W). Create one per run with NewWeightSorter; the histogram
// slab and the prebound phase bodies are allocated once, so Sort
// allocates nothing.
//
// A WeightSorter is owned by a single goroutine; the parallelism comes
// from the team it runs its phases on.
type WeightSorter struct {
	p      int
	team   *par.Team
	scn    *par.Scanner
	maxLen int

	hist    []int32  // per-worker histograms of a pass, worker-major
	and, or []uint64 // per-worker key reductions, one cache line apart

	// Per-call state read by the prebound worker bodies.
	src, dst []graph.WEdge
	m, pp    int // element count and the number of blocks it is split into
	shift    uint
	db       uint
	mask     uint64

	reduceBody  func(int)
	countBody   func(int)
	scatterBody func(int)
}

// NewWeightSorter returns a sorter running its phases on team (whose
// size must be p), with its histograms sized for inputs of up to maxLen
// edges. Longer inputs still sort correctly, with the digits of a
// maxLen-edge input.
func NewWeightSorter(p int, team *par.Team, maxLen int) *WeightSorter {
	s := &WeightSorter{
		p:      p,
		team:   team,
		scn:    par.NewScanner(p, team),
		maxLen: maxLen,
		hist:   make([]int32, p<<weightDigits(maxLen)),
		and:    make([]uint64, p*par.PadWords),
		or:     make([]uint64, p*par.PadWords),
	}
	s.reduceBody = s.reduceWork
	s.countBody = s.countWork
	s.scatterBody = s.scatterWork
	return s
}

// Sort stably sorts edges by WeightKey(W) and returns the sorted slice,
// which is edges or a prefix of spare (cap(spare) >= len(edges)); the
// other one is scratch.
//
//msf:noalloc
func (s *WeightSorter) Sort(edges, spare []graph.WEdge) []graph.WEdge {
	m := len(edges)
	if m < 2 {
		return edges
	}
	obs.SortElements.Add(int64(m))
	s.m, s.pp = m, s.p
	if m < par.SeqCutoff {
		s.pp = 1
	}
	s.src, s.dst = edges, spare[:m]
	s.run(s.reduceBody)
	and, or := ^uint64(0), uint64(0)
	for w := 0; w < s.pp; w++ {
		and &= s.and[w*par.PadWords]
		or |= s.or[w*par.PadWords]
	}
	varying := and ^ or
	if varying == 0 {
		return edges // one key: already stably sorted
	}
	// Split the varying bits into equal digits of at most weightDigits.
	low := uint(bits.TrailingZeros64(varying))
	width := uint(bits.Len64(varying)) - low
	db := weightDigits(min(m, s.maxLen))
	passes := (width + db - 1) / db
	s.db = (width + passes - 1) / passes
	s.mask = uint64(1)<<s.db - 1
	nd := 1 << s.db
	for s.shift = low; s.shift < low+width; s.shift += s.db {
		s.run(s.countBody)
		s.scn.TransposedExclusiveSum(s.hist[:s.pp*nd], s.pp, nd)
		s.run(s.scatterBody)
		s.src, s.dst = s.dst, s.src
	}
	return s.src
}

// run executes a phase body on the team, or on the caller when the
// input is below par.SeqCutoff.
//
//msf:noalloc
func (s *WeightSorter) run(body func(int)) {
	if s.pp == 1 {
		body(0)
		return
	}
	s.team.Run(body)
}

// reduceWork ANDs and ORs the keys of this worker's block: the bits
// where the two differ are the only ones the sort has to look at.
//
//msf:noalloc
func (s *WeightSorter) reduceWork(w int) {
	lo, hi := par.Block(s.m, s.pp, w)
	and, or := ^uint64(0), uint64(0)
	src := s.src
	for i := lo; i < hi; i++ {
		k := WeightKey(src[i].W)
		and &= k
		or |= k
	}
	s.and[w*par.PadWords], s.or[w*par.PadWords] = and, or
}

// countWork zeroes and fills this worker's histogram of the pass's
// digit.
//
//msf:noalloc
func (s *WeightSorter) countWork(w int) {
	lo, hi := par.Block(s.m, s.pp, w)
	h := s.hist[w<<s.db : (w+1)<<s.db]
	for i := range h {
		h[i] = 0
	}
	shift, mask := s.shift, s.mask
	src := s.src
	for i := lo; i < hi; i++ {
		h[(WeightKey(src[i].W)>>shift)&mask]++
	}
}

// scatterWork writes each edge of this worker's block to its offset
// slot for the pass's digit.
//
//msf:noalloc
func (s *WeightSorter) scatterWork(w int) {
	lo, hi := par.Block(s.m, s.pp, w)
	h := s.hist[w<<s.db : (w+1)<<s.db]
	shift, mask := s.shift, s.mask
	src, dst := s.src, s.dst
	for i := lo; i < hi; i++ {
		e := src[i]
		d := (WeightKey(e.W) >> shift) & mask
		dst[h[d]] = e
		h[d]++
	}
}
