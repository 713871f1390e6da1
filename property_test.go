package pmsf_test

// Additional property-based coverage (testing/quick) for the extension
// algorithms and the reweighting machinery.

import (
	"math"
	"testing"
	"testing/quick"

	"pmsf"
	"pmsf/internal/gen"
	"pmsf/internal/rng"
)

// MST-BC agrees with sequential Kruskal across random instances, base
// sizes and worker counts — the hybrid's whole parameter space.
func TestMSTBCAgreesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed ^ 0xabcd)
		n := 2 + r.Intn(300)
		maxM := n * (n - 1) / 2
		m := r.Intn(maxM + 1)
		g := pmsf.RandomGraph(n, m, r.Uint64())
		ref, _, err := pmsf.MinimumSpanningForest(g, pmsf.SeqKruskal, pmsf.Options{})
		if err != nil {
			return false
		}
		got, _, err := pmsf.MinimumSpanningForest(g, pmsf.MSTBC, pmsf.Options{
			Workers:  1 + r.Intn(8),
			BaseSize: 1 + r.Intn(2*n),
			Seed:     seed,
		})
		if err != nil {
			return false
		}
		d := got.Weight - ref.Weight
		scale := math.Max(math.Abs(ref.Weight), 1)
		return got.Size() == ref.Size() && got.Components == ref.Components &&
			d <= 1e-9*scale && d >= -1e-9*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Reweighting never changes WHICH edges exist, so component structure —
// and therefore forest size — is invariant across distributions, and
// every algorithm agrees under every distribution.
func TestReweightedAgreementProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed ^ 0x77)
		n := 2 + r.Intn(150)
		maxM := n * (n - 1) / 2
		m := r.Intn(maxM + 1)
		base := pmsf.RandomGraph(n, m, r.Uint64())
		for _, d := range gen.WeightDists() {
			g := gen.Reweight(base, d, seed)
			ref, _, err := pmsf.MinimumSpanningForest(g, pmsf.SeqPrim, pmsf.Options{})
			if err != nil {
				return false
			}
			for _, algo := range []pmsf.Algorithm{pmsf.BorFAL, pmsf.MSTBC, pmsf.BorCAS} {
				got, _, err := pmsf.MinimumSpanningForest(g, algo, pmsf.Options{Workers: 3, Seed: seed})
				if err != nil {
					return false
				}
				delta := got.Weight - ref.Weight
				scale := math.Max(math.Abs(ref.Weight), 1)
				if got.Size() != ref.Size() || delta > 1e-9*scale || delta < -1e-9*scale {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Forest edge ids returned by every algorithm are sorted-deduplicated
// consistent: no id repeats and each id indexes a real edge whose
// endpoints are in distinct components of the partial forest (acyclic
// insertion order is NOT guaranteed, so only set-level checks apply).
func TestForestIDSetProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed ^ 0x3131)
		n := 2 + r.Intn(200)
		m := r.Intn(3*n + 1)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := pmsf.RandomGraph(n, m, r.Uint64())
		for _, algo := range pmsf.ParallelAlgorithms() {
			forest, _, err := pmsf.MinimumSpanningForest(g, algo, pmsf.Options{Workers: 2, Seed: seed})
			if err != nil {
				return false
			}
			seen := map[int32]bool{}
			for _, id := range forest.EdgeIDs {
				if id < 0 || int(id) >= len(g.Edges) || seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
