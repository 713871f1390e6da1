package cc

import (
	"fmt"
	"testing"
	"testing/quick"

	"pmsf/internal/par"
	"pmsf/internal/rng"
	"pmsf/internal/uf"
)

// workerCounts are the team sizes every Resolver test runs at.
var workerCounts = []int{1, 2, 4}

// withResolver runs fn with a Resolver on a fresh team of p workers and
// closes the team afterwards, even when fn panics.
func withResolver(p int, fn func(r *Resolver)) {
	team := par.NewTeam(p)
	defer team.Close()
	fn(NewResolver(p, team))
}

// resolve runs one Resolver.Resolve call on a fresh team of p workers.
func resolve(p int, parent []int32) (labels []int32, k int) {
	withResolver(p, func(r *Resolver) { labels, k = r.Resolve(parent) })
	return labels, k
}

// checkLabels validates that labels form a dense consistent labelling of
// the pseudo-forest's components: same component ⇔ same label, labels in
// [0, k).
func checkLabels(t *testing.T, parent0, labels []int32, k int) {
	t.Helper()
	n := len(parent0)
	// Reference partition via union-find over the v—parent0[v] pairs.
	u := uf.New(n)
	for v, p := range parent0 {
		u.Union(int32(v), p)
	}
	rep := map[int32]int32{} // component root -> label
	seen := make([]bool, k)
	for v := 0; v < n; v++ {
		if labels[v] < 0 || int(labels[v]) >= k {
			t.Fatalf("label[%d] = %d out of [0,%d)", v, labels[v], k)
		}
		seen[labels[v]] = true
		r := u.Find(int32(v))
		if want, ok := rep[r]; ok {
			if labels[v] != want {
				t.Fatalf("vertices of one component got labels %d and %d", want, labels[v])
			}
		} else {
			rep[r] = labels[v]
		}
	}
	if len(rep) != k {
		t.Fatalf("component count %d, k = %d", len(rep), k)
	}
	for l, s := range seen {
		if !s {
			t.Fatalf("label %d unused", l)
		}
	}
}

func TestResolveHandBuilt(t *testing.T) {
	cases := []struct {
		name   string
		parent []int32
		k      int
	}{
		{"empty", nil, 0},
		{"singleton", []int32{0}, 1},
		{"pair", []int32{1, 0}, 1},
		{"two-pairs", []int32{1, 0, 3, 2}, 2},
		{"chain", []int32{1, 2, 3, 3}, 1}, // 0->1->2->3, 3 self
		{"star", []int32{0, 0, 0, 0, 0}, 1},
		{"mutual-star", []int32{1, 0, 0, 0, 0}, 1},
		{"isolated", []int32{0, 1, 2}, 3},
		{"mixed", []int32{1, 0, 2, 4, 3, 3}, 3}, // pair {0,1}, singleton {2}, triple {3,4,5}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, p := range workerCounts {
				parent := append([]int32(nil), c.parent...)
				labels, k := resolve(p, parent)
				if k != c.k {
					t.Fatalf("p=%d: k = %d, want %d", p, k, c.k)
				}
				checkLabels(t, c.parent, labels, k)
			}
		})
	}
}

// Random chosen-neighbor structures with the shape find-min actually
// produces: the pointer graph is a pseudo-forest whose only cycles are
// mutual pairs (both endpoints of a component's minimum edge select each
// other) or self-pointers (isolated vertices). Property: Resolve's labels
// must agree with the union-find partition of the pointer pairs. One
// Resolver per team size serves every case, so its buffers are reused
// across calls of growing and shrinking n.
func TestResolveProperty(t *testing.T) {
	for _, p := range workerCounts {
		withResolver(p, func(res *Resolver) {
			r := rng.New(1)
			f := func(seed uint64) bool {
				n := 1 + int(seed%200)
				parent := make([]int32, n)
				for v := range parent {
					switch {
					case v == 0 || r.Intn(5) == 0:
						parent[v] = int32(v) // isolated / root
					default:
						parent[v] = int32(r.Intn(v)) // acyclic downward pointer
					}
				}
				// Convert some self-roots into mutual pairs with a predecessor.
				for v := 1; v < n; v++ {
					if parent[v] == int32(v) && r.Bool() {
						w := r.Intn(v)
						parent[v] = int32(w)
						parent[w] = int32(v)
						// w's old subtree pointers may now pass through the pair;
						// that is exactly the legal structure (one 2-cycle per
						// component).
					}
				}
				parent0 := append([]int32(nil), parent...)
				labels, k := res.Resolve(parent)
				// Inline the checks (can't t.Fatal inside quick).
				u := uf.New(n)
				for v, p := range parent0 {
					u.Union(int32(v), p)
				}
				rep := map[int32]int32{}
				for v := 0; v < n; v++ {
					if labels[v] < 0 || int(labels[v]) >= k {
						return false
					}
					root := u.Find(int32(v))
					if want, ok := rep[root]; ok && want != labels[v] {
						return false
					}
					rep[root] = labels[v]
				}
				return len(rep) == k
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
		})
	}
}

// TestResolveLongChain runs a single long path, the deepest pointer
// structure: Resolve panics after bits(n)+2 jump rounds, so this also
// pins the O(log n) jumping depth.
func TestResolveLongChain(t *testing.T) {
	const n = 1 << 15
	for _, p := range workerCounts {
		parent := make([]int32, n)
		for v := 1; v < n; v++ {
			parent[v] = int32(v - 1)
		}
		parent[0] = 1 // mutual pair at the head
		labels, k := resolve(p, parent)
		if k != 1 {
			t.Fatalf("p=%d: k = %d, want 1", p, k)
		}
		for v, l := range labels {
			if l != 0 {
				t.Fatalf("p=%d: label[%d] = %d", p, v, l)
			}
		}
	}
}

// A cycle longer than 2 cannot come out of find-min; Resolve must fail
// loudly on one instead of looping or labelling it.
func TestResolvePanicsOnLongCycle(t *testing.T) {
	for _, p := range workerCounts {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("p=%d: a 3-cycle did not panic", p)
				}
			}()
			// 0 -> 1 -> 2 -> 0, with 3 hanging off the cycle.
			resolve(p, []int32{1, 2, 0, 2})
		}()
	}
}

func TestResolveDeterministicAcrossP(t *testing.T) {
	r := rng.New(2)
	const n = 5000
	base := make([]int32, n)
	for v := range base {
		if v == 0 || r.Intn(4) == 0 {
			base[v] = int32(v)
		} else {
			base[v] = int32(r.Intn(v))
		}
	}
	for v := 1; v < n; v++ {
		if base[v] == int32(v) && r.Bool() {
			w := r.Intn(v)
			base[v] = int32(w)
			base[w] = int32(v)
		}
	}
	var ref []int32
	for _, p := range workerCounts {
		parent := append([]int32(nil), base...)
		labels, _ := resolve(p, parent)
		if ref == nil {
			ref = labels
			continue
		}
		for v := range labels {
			if labels[v] != ref[v] {
				t.Fatalf("p=%d: labels differ from p=1 at %d", p, v)
			}
		}
	}
}

func TestResolveAllSelf(t *testing.T) {
	for _, p := range workerCounts {
		labels, k := resolve(p, []int32{0, 1, 2, 3, 4})
		if k != 5 {
			t.Fatalf("p=%d: k = %d", p, k)
		}
		for v, l := range labels {
			if int(l) != v {
				t.Fatalf("p=%d: label[%d] = %d", p, v, l)
			}
		}
	}
}

func ExampleResolver_Resolve() {
	team := par.NewTeam(2)
	defer team.Close()
	r := NewResolver(2, team)
	// Vertices 0 and 1 chose each other; 2 chose 1; 3 is isolated.
	labels, k := r.Resolve([]int32{1, 0, 1, 3})
	fmt.Println(k, labels)
	// Output: 2 [0 0 0 1]
}
