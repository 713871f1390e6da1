package main

import (
	"math"
	"slices"
	"testing"
	"time"

	"pmsf"
)

func sortedIDs(f *pmsf.Forest) []int32 {
	ids := slices.Clone(f.EdgeIDs)
	slices.Sort(ids)
	return ids
}

// TestYardstickMatchesKruskal pins the oracle: on every input family,
// including heavy ties, the yardstick's forest is exactly the library's
// sequential Kruskal forest (both break ties by edge id).
func TestYardstickMatchesKruskal(t *testing.T) {
	allEqual := pmsf.RandomGraph(1500, 9000, 4)
	for i := range allEqual.Edges {
		allEqual.Edges[i].W = 1
	}
	multi := pmsf.NewGraph(6, []pmsf.Edge{
		{U: 0, V: 1, W: 2}, {U: 1, V: 0, W: 2}, {U: 1, V: 1, W: 0}, {U: 1, V: 2, W: 1},
		{U: 2, V: 0, W: 1}, {U: 3, V: 4, W: 5}, {U: 4, V: 3, W: 4},
	})
	graphs := map[string]*pmsf.Graph{
		"random":                pmsf.RandomGraph(4000, 24000, 1),
		"random-disconnected":   pmsf.RandomGraph(4000, 2500, 2),
		"mesh":                  pmsf.MeshGraph(60, 70, 3),
		"duplicate-weights":     pmsf.ReweightGraph(pmsf.RandomGraph(3000, 18000, 5), pmsf.WeightsSmallInts, 6),
		"all-equal-weights":     allEqual,
		"multi-edge-self-loops": multi,
		"empty":                 pmsf.NewGraph(5, nil),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			got := yardstick(g)
			want, _, err := pmsf.MinimumSpanningForest(g, pmsf.SeqKruskal, pmsf.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sortedIDs(got), sortedIDs(want)) {
				t.Fatalf("edge sets differ: %d vs Kruskal's %d edges", got.Size(), want.Size())
			}
			if got.Components != want.Components || math.Abs(got.Weight-want.Weight) > 1e-9*math.Max(1, want.Weight) {
				t.Fatalf("weight/components %v/%d, Kruskal %v/%d", got.Weight, got.Components, want.Weight, want.Components)
			}
			if err := pmsf.Verify(g, got); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestYardstickKeepsPrimSpeed checks that the frozen copy still runs
// about as fast as the library's Prim, so x_seq keeps meaning "speedup
// over the best sequential algorithm". Best of five each, loose bounds:
// the point is to catch a yardstick that drifted far, not timer noise.
func TestYardstickKeepsPrimSpeed(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	g := pmsf.RandomGraph(100_000, 600_000, 9)
	best := func(f func()) time.Duration {
		b := time.Duration(math.MaxInt64)
		for i := 0; i < 5; i++ {
			cleanHeap()
			b = min(b, timed(f))
		}
		return b
	}
	y := best(func() { yardstick(g) })
	p := best(func() { _, _, _ = pmsf.MinimumSpanningForest(g, pmsf.SeqPrim, pmsf.Options{}) })
	ratio := float64(y) / float64(p)
	t.Logf("yardstick %v, SeqPrim %v, ratio %.2f", y, p, ratio)
	if ratio < 0.6 || ratio > 1.5 {
		t.Fatalf("yardstick/SeqPrim time ratio %.2f outside [0.6, 1.5]", ratio)
	}
}
