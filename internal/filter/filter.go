// Package filter implements a sampling-based edge-elimination MSF
// algorithm — the direction the paper's Section 3 points to after
// observing (Table 1) that for m/n >= 2 more than half the edges are not
// in the MSF: "if we can exclude heavy edges in the early stages of the
// algorithm and decrease m, we may have a more efficient parallel
// implementation", citing the cycle-property algorithms of Cole, Klein &
// Tarjan and of Katriel, Sanders & Träff.
//
// The algorithm (a practical single-level instance of the KKT scheme):
//
//  1. Sample each edge independently with probability SampleP.
//  2. Compute the minimum spanning forest F' of the sample with Bor-FAL.
//  3. Discard every non-sampled edge that is F'-heavy (its weight is at
//     least the maximum weight on the F'-path between its endpoints —
//     the cycle property guarantees such edges are not in any MSF).
//     Heaviness is decided with the binary-lifting path-max index,
//     queried in parallel.
//  4. Compute the final MSF of the surviving edges (the sample's forest
//     edges plus the non-heavy remainder) with Bor-FAL.
//
// By the KKT sampling lemma the expected number of survivors in step 3
// is at most n/SampleP, so the final phase runs on a graph of expected
// size O(n) regardless of the input density.
package filter

import (
	"fmt"

	"pmsf/internal/boruvka"
	"pmsf/internal/graph"
	"pmsf/internal/obs"
	"pmsf/internal/par"
	"pmsf/internal/pathmax"
	"pmsf/internal/rng"
)

// Options configures a filtered MSF run.
type Options struct {
	// Workers is the parallelism; 0 means GOMAXPROCS.
	Workers int
	// SampleP is the edge sampling probability; 0 means 0.5.
	SampleP float64
	// Seed drives the sampling and the inner Bor-FAL runs.
	Seed uint64
	// MaxLevels bounds the filtering recursion: the sample's MSF is
	// itself computed with the filter while the sample still has more
	// than RecurseBelow edges and the depth budget lasts (the full
	// Karger-Klein-Tarjan recursion instead of a single level). 0 means
	// one level, the practical default.
	MaxLevels int
	// RecurseBelow is the sample size under which recursion stops and
	// Bor-FAL solves directly; 0 means 1<<16.
	RecurseBelow int
	// Trace, when non-nil, receives hierarchical spans for every filter
	// stage and the inner Bor-FAL runs. The root span carries m, and its
	// sample, filter and final-msf children carry the sampled, discarded
	// and surviving edge counts; a recursive sample MSF nests another
	// Filter root under sample-msf.
	Trace *obs.Collector
	// Parent, when live, nests the run's spans under an enclosing span;
	// it implies the parent's collector and overrides Trace.
	Parent obs.Span
}

// Run computes the minimum spanning forest of g with the sampling
// filter.
func Run(g *graph.EdgeList, opt Options) *graph.Forest {
	p := opt.Workers
	if p <= 0 {
		p = par.DefaultWorkers()
	}
	prob := opt.SampleP
	if prob <= 0 || prob >= 1 {
		prob = 0.5
	}

	c := opt.Trace
	if opt.Parent.Live() {
		c = opt.Parent.Collector()
	}
	const name = "Filter"
	root := obs.StartUnder(c, opt.Parent, name, name)
	root.SetInt("workers", int64(p))
	root.SetInt("m", int64(len(g.Edges)))
	defer root.End()

	m := len(g.Edges)
	if m == 0 {
		return boruvka.FAL(g, boruvka.Options{Workers: p, Seed: opt.Seed, Parent: root})
	}

	// Step 1: sample. Per-worker split RNG streams keep this
	// deterministic for a fixed worker count; the RESULT (the MSF) is
	// correct for any sample, so p only influences which sample is used.
	sampleSpan := root.Child("sample")
	inSample := make([]bool, m)
	var sampleIDs []int32
	var sample *graph.EdgeList
	c.Labeled(name, "sample", func() {
		base := rng.New(opt.Seed)
		streams := make([]*rng.Xoshiro256, par.Clamp(p, m))
		for i := range streams {
			streams[i] = base.Split()
		}
		par.For(len(streams), m, func(w, lo, hi int) {
			r := streams[w]
			for i := lo; i < hi; i++ {
				inSample[i] = r.Float64() < prob
			}
		})

		sampleIDs = par.PackIndices(p, m, func(i int) bool { return inSample[i] })
		sample = &graph.EdgeList{N: g.N, Edges: make([]graph.Edge, len(sampleIDs))}
		par.For(p, len(sampleIDs), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				sample.Edges[i] = g.Edges[sampleIDs[i]]
			}
		})
	})
	sampleSpan.SetInt("sampled", int64(len(sampleIDs)))
	sampleSpan.End()

	// Step 2: MSF of the sample — recursively through the filter while
	// the sample is large and the depth budget lasts (full KKT), else
	// directly with Bor-FAL.
	recurseBelow := opt.RecurseBelow
	if recurseBelow <= 0 {
		recurseBelow = 1 << 16
	}
	var sf *graph.Forest
	sampleMSF := root.Child("sample-msf")
	if opt.MaxLevels > 1 && len(sample.Edges) > recurseBelow {
		childOpt := opt
		childOpt.MaxLevels = opt.MaxLevels - 1
		childOpt.Seed = opt.Seed + 0x9e37
		childOpt.Parent = sampleMSF
		sf = Run(sample, childOpt)
	} else {
		sf = boruvka.FAL(sample, boruvka.Options{Workers: p, Seed: opt.Seed, Parent: sampleMSF})
	}
	sampleMSF.End()
	// Map the sample forest's local ids back to input ids.
	forestIDs := make([]int32, len(sf.EdgeIDs))
	for i, local := range sf.EdgeIDs {
		forestIDs[i] = sampleIDs[local]
	}

	// Step 3: eliminate F'-heavy non-sample edges with parallel path-max
	// queries. Edges joining different F' trees are always kept.
	filterSpan := root.Child("filter")
	keep := make([]bool, m)
	c.Labeled(name, "filter", func() {
		idx, err := pathmax.Build(g, forestIDs)
		if err != nil {
			// forestIDs come from an engine-produced sample MSF; a
			// non-forest here is a library bug, not an input condition.
			panic(fmt.Sprintf("filter: sample MSF is not a forest: %v", err))
		}
		for _, id := range forestIDs {
			keep[id] = true
		}
		par.For(p, m, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if inSample[i] || keep[i] {
					continue // sampled non-forest edges are F'-heavy by definition of F'... see note below
				}
				e := g.Edges[i]
				if e.U == e.V {
					continue
				}
				hm := idx.Query(e.U, e.V)
				// Keep the edge unless it is F'-heavy under the perturbed
				// total order (W, id) — the same order every tie-break in the
				// library uses, which keeps duplicate weights safe.
				if hm < 0 || e.W < g.Edges[hm].W ||
					(e.W == g.Edges[hm].W && int32(i) < hm) {
					keep[i] = true
				}
			}
		})
	})
	// Note: sampled edges NOT in F' are F'-heavy by the correctness of
	// the sample MSF (they close a cycle within the sample in which they
	// are maximal), so they can be discarded outright — this is the core
	// saving of the KKT filter.

	keptIDs := par.PackIndices(p, m, func(i int) bool { return keep[i] })
	discarded := m - len(keptIDs)
	filterSpan.SetInt("discarded", int64(discarded))
	filterSpan.End()
	if discarded > 0 && obs.MetricsOn() {
		obs.EdgesRetired.Add(int64(discarded))
	}

	// Step 4: final MSF over the survivors.
	finalMSF := root.Child("final-msf")
	finalMSF.SetInt("m", int64(len(keptIDs)))
	final := &graph.EdgeList{N: g.N, Edges: make([]graph.Edge, len(keptIDs))}
	par.For(p, len(keptIDs), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			final.Edges[i] = g.Edges[keptIDs[i]]
		}
	})
	ff := boruvka.FAL(final, boruvka.Options{Workers: p, Seed: opt.Seed + 1, Parent: finalMSF})
	finalMSF.End()
	out := &graph.Forest{Components: ff.Components, Weight: ff.Weight}
	out.EdgeIDs = make([]int32, len(ff.EdgeIDs))
	for i, local := range ff.EdgeIDs {
		out.EdgeIDs[i] = keptIDs[local]
	}
	return out
}
