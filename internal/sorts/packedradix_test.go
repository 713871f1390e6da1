package sorts

import (
	"sort"
	"testing"

	"pmsf/internal/graph"
	"pmsf/internal/par"
	"pmsf/internal/rng"
)

// referenceCompact is the naive model of Compact: stable-sort by
// (U, V), drop self-loops, keep the minimum-(W, ID) edge of every run,
// and record the per-vertex segment starts.
func referenceCompact(edges []graph.WEdge, n int) ([]graph.WEdge, []int64) {
	s := append([]graph.WEdge(nil), edges...)
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].U != s[j].U {
			return s[i].U < s[j].U
		}
		return s[i].V < s[j].V
	})
	var out []graph.WEdge
	for i := 0; i < len(s); {
		j := i
		best := s[i]
		for j < len(s) && s[j].U == s[i].U && s[j].V == s[i].V {
			if s[j].W < best.W || (s[j].W == best.W && s[j].ID < best.ID) {
				best = s[j]
			}
			j++
		}
		if best.U != best.V {
			out = append(out, best)
		}
		i = j
	}
	starts := make([]int64, n+1)
	starts[n] = int64(len(out))
	for v := 0; v < n; v++ {
		starts[v] = -1
	}
	for i := len(out) - 1; i >= 0; i-- {
		starts[out[i].U] = int64(i)
	}
	for v := n - 1; v >= 0; v-- {
		if starts[v] < 0 {
			starts[v] = starts[v+1]
		}
	}
	return out, starts
}

func runCompact(t *testing.T, p int, edges []graph.WEdge, n int) (*Compactor, []graph.WEdge, []graph.WEdge, []int64) {
	t.Helper()
	team := par.NewTeam(p)
	defer team.Close()
	c := NewCompactor(p, team)
	work := append([]graph.WEdge(nil), edges...)
	spare := make([]graph.WEdge, len(edges))
	keep := make([]int32, len(edges))
	starts := make([]int64, n+1)
	out, sorted := c.Compact(work, spare, n, keep, starts)
	return c, out, sorted, starts
}

func checkAgainstReference(t *testing.T, name string, p int, edges []graph.WEdge, n int) {
	t.Helper()
	wantOut, wantStarts := referenceCompact(edges, n)
	c, out, sorted, starts := runCompact(t, p, edges, n)
	if len(out) != len(wantOut) {
		t.Fatalf("%s p=%d (passes=%d db=%d): kept %d edges, want %d", name, p, c.Passes, c.LastDigitBits, len(out), len(wantOut))
	}
	for i := range wantOut {
		if out[i] != wantOut[i] {
			t.Fatalf("%s p=%d (passes=%d db=%d): out[%d]=%+v, want %+v", name, p, c.Passes, c.LastDigitBits, i, out[i], wantOut[i])
		}
	}
	for i := range wantStarts {
		if starts[i] != wantStarts[i] {
			t.Fatalf("%s p=%d: starts[%d]=%d, want %d", name, p, i, starts[i], wantStarts[i])
		}
	}
	// The full sorted array (the returned spare) must be sorted by the
	// packed key and STABLE: with ID = original index, equal (U, V) runs
	// must keep ascending ids — this is what validates the multi-pass
	// count/offset/scatter machinery beyond the min-reduced view.
	width := PackWidth(n)
	for i := 1; i < len(sorted); i++ {
		ka, kb := packedKey(sorted[i-1], width), packedKey(sorted[i], width)
		if ka > kb {
			t.Fatalf("%s p=%d: sorted[%d..%d] out of order: %+v > %+v", name, p, i-1, i, sorted[i-1], sorted[i])
		}
		if ka == kb && sorted[i-1].ID >= sorted[i].ID {
			t.Fatalf("%s p=%d: unstable at %d: id %d before %d on equal keys", name, p, i, sorted[i-1].ID, sorted[i].ID)
		}
	}
}

func randomEdges(r *rng.Xoshiro256, n, m, dupRuns int) []graph.WEdge {
	edges := make([]graph.WEdge, m)
	for i := range edges {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if dupRuns > 0 && i%dupRuns != 0 && i > 0 {
			// Heavy duplication: repeat the previous endpoint pair so
			// every run exercises the stability requirement.
			u, v = edges[i-1].U, edges[i-1].V
		}
		edges[i] = graph.WEdge{U: u, V: v, W: graph.Weight(r.Float64()), ID: int32(i)}
	}
	return edges
}

// TestCompactorPackWidthBoundaries covers supervertex counts straddling
// every pack-width step (n = 2^k-1, 2^k, 2^k+1): the packed key gains a
// bit exactly there, which moves the plan between pass counts.
func TestCompactorPackWidthBoundaries(t *testing.T) {
	r := rng.New(11)
	for _, k := range []uint{1, 2, 3, 5, 7, 10} {
		for _, n := range []int{1<<k - 1, 1 << k, 1<<k + 1} {
			if n < 1 {
				continue
			}
			m := 4 * n
			edges := randomEdges(r, n, m, 3)
			for _, p := range []int{1, 3, 4} {
				checkAgainstReference(t, "boundary", p, edges, n)
			}
		}
	}
}

// TestCompactorMultiPassStability pins the stability of multi-pass
// plans under heavy duplicate packed keys, for the p = 1 one-shot count
// and for p > 1, where each pass re-counts its digit over the array the
// previous pass reordered.
func TestCompactorMultiPassStability(t *testing.T) {
	r := rng.New(12)
	// n = 40 gives a 12-bit key: small m/p makes RadixPlanFor split it
	// into two 6-bit passes (the parity bug class this test pins).
	edges := randomEdges(r, 40, 200, 2)
	for _, p := range []int{1, 2, 3, 8} {
		c, _, _, _ := runCompact(t, p, edges, 40)
		if c.Passes < 2 {
			t.Fatalf("p=%d: plan has %d passes, want >= 2 for this test to bite", p, c.Passes)
		}
		checkAgainstReference(t, "multipass", p, edges, 40)
	}
}

// TestCompactorWideDigitRecount runs a p > 1 multi-pass plan with
// digits wider than 14 bits: the wide end of RadixPlanFor's plan space,
// which the small inputs of the other tests never reach.
func TestCompactorWideDigitRecount(t *testing.T) {
	if testing.Short() {
		t.Skip("large input")
	}
	r := rng.New(13)
	n := 20000 // width 15 -> 30-bit key
	m := 600000
	edges := randomEdges(r, n, m, 5)
	c, _, _, _ := runCompact(t, 2, edges, n)
	if c.LastDigitBits <= 14 || c.Passes < 2 {
		t.Fatalf("plan %d x %d bits is not a multi-pass plan wider than 14 bits; test is vacuous", c.Passes, c.LastDigitBits)
	}
	checkAgainstReference(t, "wide", 2, edges, n)
}

// TestRadixPlanForBounds checks the adaptive plan invariants over the
// (n, m, p) space: the digits cover the key, stay within the
// maxHistPerWorker entries per worker of the pass-major histogram slab
// NewCompactor allocates, and never exceed the uniform maximum.
func TestRadixPlanForBounds(t *testing.T) {
	for _, n := range []int{1, 2, 3, 31, 32, 33, 1000, 1 << 15, 1 << 20, 1 << 24} {
		total := 2 * PackWidth(n)
		for _, m := range []int{0, 1, 100, 10000, 10_000_000} {
			for _, p := range []int{1, 2, 4, 8, 64} {
				passes, db := RadixPlanFor(n, m, p)
				if passes < 1 || db < 1 || db > maxDigitBits {
					t.Fatalf("n=%d m=%d p=%d: plan %d x %d out of range", n, m, p, passes, db)
				}
				if uint(passes)*db < total {
					t.Fatalf("n=%d m=%d p=%d: %d passes x %d bits < %d key bits", n, m, p, passes, db, total)
				}
				if passes<<db > maxHistPerWorker {
					t.Fatalf("n=%d m=%d p=%d: %d<<%d exceeds histogram slab", n, m, p, passes, db)
				}
				minPasses, _ := RadixPlan(n)
				if passes < minPasses {
					t.Fatalf("n=%d m=%d p=%d: %d passes below uniform minimum %d", n, m, p, passes, minPasses)
				}
			}
		}
	}
}

// TestCompactorEmptyAndTiny covers the degenerate sizes.
func TestCompactorEmptyAndTiny(t *testing.T) {
	for _, p := range []int{1, 4} {
		checkAgainstReference(t, "empty", p, nil, 5)
		checkAgainstReference(t, "one-self-loop", p, []graph.WEdge{{U: 2, V: 2, W: 1, ID: 0}}, 5)
		checkAgainstReference(t, "one-edge", p, []graph.WEdge{{U: 4, V: 0, W: 1, ID: 0}}, 5)
	}
}
