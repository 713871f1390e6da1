package sorts

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"pmsf/internal/graph"
	"pmsf/internal/par"
	"pmsf/internal/rng"
)

func TestWeightKeyOrder(t *testing.T) {
	ws := []float64{math.Inf(-1), -math.MaxFloat64, -1e300, -2, -1, -math.SmallestNonzeroFloat64,
		0, math.SmallestNonzeroFloat64, 1e-300, 0.5, 1, 2, 1e300, math.MaxFloat64, math.Inf(1)}
	for i := 1; i < len(ws); i++ {
		if WeightKey(ws[i-1]) >= WeightKey(ws[i]) {
			t.Errorf("WeightKey(%v) = %#x, not below WeightKey(%v) = %#x", ws[i-1], WeightKey(ws[i-1]), ws[i], WeightKey(ws[i]))
		}
	}
	if WeightKey(math.Copysign(0, -1)) != WeightKey(0) {
		t.Error("-0 and +0 have different keys")
	}
}

// weightInputs are the sorter's test distributions, keyed by name.
func weightInputs(m int, seed uint64) map[string][]float64 {
	r := rng.New(seed)
	gen := func(f func(i int) float64) []float64 {
		ws := make([]float64, m)
		for i := range ws {
			ws[i] = f(i)
		}
		return ws
	}
	specials := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, -1, 1}
	return map[string][]float64{
		"uniform":  gen(func(int) float64 { return r.Float64() }),
		"narrow":   gen(func(int) float64 { return 0.25 + 1e-3*r.Float64() }),
		"negative": gen(func(int) float64 { return -1e6 * r.Float64() }),
		"ints":     gen(func(int) float64 { return float64(r.Intn(8)) }),
		"equal":    gen(func(int) float64 { return 2.5 }),
		"specials": gen(func(int) float64 { return specials[r.Intn(len(specials))] }),
		// A tight cluster beside far outliers: the varying bits span
		// most of the key, so the sort takes its longest plan.
		"skewed": gen(func(i int) float64 {
			if i%97 == 0 {
				return 1e200 * r.Float64()
			}
			return 1 + 1e-9*r.Float64()
		}),
	}
}

func TestWeightSorterStable(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		team := par.NewTeam(p)
		for _, m := range []int{0, 1, 2, 100, 5000, par.SeqCutoff + 1, 3 * par.SeqCutoff} {
			s := NewWeightSorter(p, team, m)
			for name, ws := range weightInputs(m, uint64(m)+1) {
				in := make([]graph.WEdge, m)
				for i, w := range ws {
					in[i] = graph.WEdge{U: int32(i), V: int32(i + 1), ID: int32(i), W: w}
				}
				want := slices.Clone(in)
				slices.SortStableFunc(want, func(a, b graph.WEdge) int { return cmp.Compare(WeightKey(a.W), WeightKey(b.W)) })
				got := s.Sort(slices.Clone(in), make([]graph.WEdge, m))
				if len(got) != m {
					t.Fatalf("p=%d m=%d %s: %d edges out", p, m, name, len(got))
				}
				for i := range got {
					if got[i].ID != want[i].ID {
						t.Fatalf("p=%d m=%d %s: position %d holds edge %d (w=%v), want %d (w=%v)",
							p, m, name, i, got[i].ID, got[i].W, want[i].ID, want[i].W)
					}
				}
			}
		}
		team.Close()
	}
}

func TestWeightSorterLongerThanPlanned(t *testing.T) {
	// The digit plan is sized for maxLen; longer inputs must still sort.
	team := par.NewTeam(2)
	defer team.Close()
	s := NewWeightSorter(2, team, 64)
	for name, ws := range weightInputs(20000, 7) {
		in := make([]graph.WEdge, len(ws))
		for i, w := range ws {
			in[i] = graph.WEdge{ID: int32(i), W: w}
		}
		got := s.Sort(in, make([]graph.WEdge, len(in)))
		if !slices.IsSortedFunc(got, func(a, b graph.WEdge) int {
			return cmp.Or(cmp.Compare(WeightKey(a.W), WeightKey(b.W)), cmp.Compare(a.ID, b.ID))
		}) {
			t.Errorf("%s: output not in (key, ID) order", name)
		}
	}
}

func ExampleWeightKey() {
	fmt.Println(WeightKey(-1) < WeightKey(0), WeightKey(math.Copysign(0, -1)) == WeightKey(0))
	// Output: true true
}
