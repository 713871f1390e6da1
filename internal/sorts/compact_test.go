package sorts

import (
	"slices"
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

// checkAgainstReference compacts a copy of edges at p workers, checks
// out and starts against referenceCompact, and returns the compactor
// for its span attributes.
func checkAgainstReference(t *testing.T, name string, p int, edges []graph.WEdge, n int) *Compactor {
	t.Helper()
	wantOut, wantStarts := referenceCompact(edges, n)
	team := par.NewTeam(p)
	defer team.Close()
	c := NewCompactor(p, team, n)
	starts := make([]int64, n+1)
	out, _ := c.Compact(append([]graph.WEdge(nil), edges...), make([]graph.WEdge, len(edges)), n, starts)
	if len(out) != len(wantOut) {
		t.Fatalf("%s p=%d: kept %d edges, want %d", name, p, len(out), len(wantOut))
	}
	for i := range wantOut {
		if out[i] != wantOut[i] {
			t.Fatalf("%s p=%d: out[%d]=%+v, want %+v", name, p, i, out[i], wantOut[i])
		}
	}
	for i := range wantStarts {
		if starts[i] != wantStarts[i] {
			t.Fatalf("%s p=%d: starts[%d]=%d, want %d", name, p, i, starts[i], wantStarts[i])
		}
	}
	return c
}

func randomEdges(r *rng.Xoshiro256, n, m, dupRuns int) []graph.WEdge {
	edges := make([]graph.WEdge, m)
	for i := range edges {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if dupRuns > 0 && i%dupRuns != 0 && i > 0 {
			// Heavy duplication: repeat the previous endpoint pair so
			// runs of equal (U, V) reach the min-reduction.
			u, v = edges[i-1].U, edges[i-1].V
		}
		edges[i] = graph.WEdge{U: u, V: v, W: graph.Weight(r.Float64()), ID: int32(i)}
	}
	return edges
}

// TestCompactorWideDigitRecount runs a p > 1 input whose segments are
// long enough for the LSD path and whose V spans two digits, so every
// long segment recounts its own digit histograms; the short inputs of
// the other tests never reach it.
func TestCompactorWideDigitRecount(t *testing.T) {
	if testing.Short() {
		t.Skip("large input")
	}
	r := rng.New(13)
	n := 20000 // V spans 15 bits: two 8-bit digits
	m := 600000
	edges := randomEdges(r, n, m, 5)
	for i := range edges {
		if i%3 == 0 {
			edges[i].U = int32(r.Intn(64)) // a few hubs with long segments
		}
	}
	c := checkAgainstReference(t, "wide", 2, edges, n)
	if c.MaxSegment <= InsertionCutoff || c.Passes != 3 {
		t.Fatalf("longest segment %d, %d passes: no segment took the two-digit LSD path; test is vacuous", c.MaxSegment, c.Passes)
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

// TestCompactorMaxSegment pins the span attributes on a star: every arc
// of the centre lands in one segment, which takes the LSD path.
func TestCompactorMaxSegment(t *testing.T) {
	const n = 300
	var edges []graph.WEdge
	for v := int32(1); v < n; v++ {
		edges = append(edges, graph.WEdge{U: 0, V: v, W: 1, ID: 2 * v}, graph.WEdge{U: v, V: 0, W: 1, ID: 2*v + 1})
	}
	for _, p := range []int{1, 3} {
		c := checkAgainstReference(t, "star", p, edges, n)
		if c.MaxSegment != n-1 || c.Passes != 3 {
			t.Fatalf("p=%d: MaxSegment %d, Passes %d; want %d and 3", p, c.MaxSegment, c.Passes, n-1)
		}
	}
	c := checkAgainstReference(t, "short", 2, edges[:10], n)
	if c.MaxSegment != 5 || c.Passes != 1 {
		t.Fatalf("short segments: MaxSegment %d, Passes %d; want 5 and 1", c.MaxSegment, c.Passes)
	}
}

// TestCompactEdgesMatchesDirected checks the level-0 entry point: on an
// undirected list with self-loops and parallel edges, CompactEdges must
// equal Compact over the directed working list.
func TestCompactEdgesMatchesDirected(t *testing.T) {
	r := rng.New(14)
	for _, n := range []int{1, 2, 7, 300, 5000} {
		g := &graph.EdgeList{N: n}
		for i := 0; i < 3*n; i++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if i%4 == 1 {
				u = int32(r.Intn(min(n, 3))) // hubs
			}
			g.Edges = append(g.Edges, graph.Edge{U: u, V: v, W: graph.Weight(r.Intn(4))})
		}
		wantOut, wantStarts := referenceCompact(graph.DirectedWorkList(g), n)
		for _, p := range []int{1, 3} {
			team := par.NewTeam(p)
			c := NewCompactor(p, team, n)
			buf := make([]graph.WEdge, 2*len(g.Edges))
			spare := make([]graph.WEdge, 2*len(g.Edges))
			starts := make([]int64, n+1)
			out, _ := c.CompactEdges(g.Edges, buf, spare, n, starts)
			team.Close()
			if !slices.Equal(out, wantOut) || !slices.Equal(starts, wantStarts) {
				t.Fatalf("n=%d p=%d: CompactEdges differs from the reference over the directed list", n, p)
			}
		}
	}
}

// TestCompactorZeroAllocs pins a steady-state Compact at zero heap
// allocations, on an input with a segment past the insertion cutoff:
// the LSD scratch must come from the dead input range.
func TestCompactorZeroAllocs(t *testing.T) {
	r := rng.New(15)
	const n = 2000
	edges := randomEdges(r, n, 8*n, 3)
	for i := 0; i < 4*InsertionCutoff; i++ {
		edges[i].U = 7
	}
	for _, p := range []int{1, 2} {
		team := par.NewTeam(p)
		c := NewCompactor(p, team, n)
		work := make([]graph.WEdge, len(edges))
		spare := make([]graph.WEdge, len(edges))
		starts := make([]int64, n+1)
		allocs := testing.AllocsPerRun(20, func() {
			copy(work, edges)
			c.Compact(work, spare, n, starts)
		})
		team.Close()
		if c.MaxSegment <= InsertionCutoff {
			t.Fatalf("p=%d: longest segment %d is not past the insertion cutoff; test is vacuous", p, c.MaxSegment)
		}
		if allocs != 0 {
			t.Fatalf("p=%d: Compact allocated %.1f objects per call, want 0", p, allocs)
		}
	}
}
