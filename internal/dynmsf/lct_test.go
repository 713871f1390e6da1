package dynmsf

import (
	"slices"
	"testing"

	"pmsf/internal/rng"
)

// bruteForest is the reference for the link-cut tree: an explicit edge
// set searched by DFS.
type bruteForest struct {
	adj   [][]arc
	w     map[int32]float64
	nodes map[int32]int32 // edge id -> link-cut node
	ends  map[int32][2]int32
}

func newBruteForest(n int) *bruteForest {
	return &bruteForest{adj: make([][]arc, n), w: map[int32]float64{},
		nodes: map[int32]int32{}, ends: map[int32][2]int32{}}
}

// pathMax returns the heaviest (W, id) edge on the u..v path and
// whether one exists.
func (b *bruteForest) pathMax(u, v int32) (int32, bool) {
	type item struct{ v, best int32 }
	seen := map[int32]bool{u: true}
	stack := []item{{u, -1}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if it.v == v {
			return it.best, true
		}
		for _, a := range b.adj[it.v] {
			if seen[a.to] {
				continue
			}
			seen[a.to] = true
			best := it.best
			if best < 0 || b.w[a.eid] > b.w[best] || (b.w[a.eid] == b.w[best] && a.eid > best) {
				best = a.eid
			}
			stack = append(stack, item{a.to, best})
		}
	}
	return -1, false
}

func (b *bruteForest) link(lt *lct, u, v, id int32, w float64) {
	b.nodes[id] = lt.link(u, v, id, w)
	b.w[id] = w
	b.ends[id] = [2]int32{u, v}
	b.adj[u] = append(b.adj[u], arc{v, id})
	b.adj[v] = append(b.adj[v], arc{u, id})
}

func (b *bruteForest) cut(lt *lct, id int32) {
	e := b.ends[id]
	lt.cut(b.nodes[id], e[0], e[1])
	b.adj[e[0]] = removeArc(b.adj[e[0]], id)
	b.adj[e[1]] = removeArc(b.adj[e[1]], id)
	delete(b.nodes, id)
	delete(b.w, id)
	delete(b.ends, id)
}

// check compares pathMax on the link-cut tree with the brute force.
func (b *bruteForest) check(t *testing.T, lt *lct, u, v int32) {
	t.Helper()
	want, wantOK := b.pathMax(u, v)
	got, ok := lt.pathMax(u, v)
	if ok != wantOK || (ok && got != want) {
		t.Fatalf("pathMax(%d, %d) = %d, %v; brute force %d, %v", u, v, got, ok, want, wantOK)
	}
}

// TestLCTAgainstBruteForce runs random link, cut and path-max
// operations on random forests, with tied weights so the id tie-break
// matters, and checks every query against a DFS.
func TestLCTAgainstBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		r := rng.New(seed)
		n := 2 + r.Intn(60)
		lt := newLCT(n)
		b := newBruteForest(n)
		next := int32(0)
		for op := 0; op < 3000; op++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u == v {
				continue
			}
			_, connected := b.pathMax(u, v)
			switch {
			case !connected && r.Intn(3) > 0:
				b.link(lt, u, v, next, float64(r.Intn(5)))
				next++
			case len(b.ends) > 0 && r.Intn(4) == 0:
				ids := make([]int32, 0, len(b.ends))
				for id := range b.ends {
					ids = append(ids, id)
				}
				slices.Sort(ids) // map order is random; keep runs reproducible
				b.cut(lt, ids[r.Intn(len(ids))])
			default:
				b.check(t, lt, u, v)
			}
		}
	}
}

// TestLCTPathGraph drives the deep splay chains of a long path: one
// built in O(n) from parent pointers as the handle's init does, queried
// end to end, cut in the middle and re-linked.
func TestLCTPathGraph(t *testing.T) {
	const n = 2000
	lt := newLCT(n)
	b := newBruteForest(n)
	for v := int32(1); v < n; v++ {
		w := float64((v * 7919) % 1000)
		b.nodes[v-1] = lt.attach(v, v-1, v-1, w)
		b.w[v-1] = w
		b.ends[v-1] = [2]int32{v, v - 1}
		b.adj[v] = append(b.adj[v], arc{v - 1, v - 1})
		b.adj[v-1] = append(b.adj[v-1], arc{v, v - 1})
	}
	r := rng.New(9)
	b.check(t, lt, 0, n-1)
	b.check(t, lt, n-1, 0)
	next := int32(n)
	for i := 0; i < 200; i++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u != v {
			b.check(t, lt, u, v)
		}
		if i%10 == 0 {
			mid := int32(n/4 + r.Intn(n/2))
			if e, ok := b.ends[mid]; ok {
				b.cut(lt, mid)
				b.check(t, lt, 0, n-1)
				// Rejoin the ends of the path when the cut split them,
				// else the two halves of the cut edge.
				if _, joined := b.pathMax(0, n-1); !joined {
					e = [2]int32{0, n - 1}
				}
				b.link(lt, e[0], e[1], next, float64(r.Intn(1000)))
				next++
			}
		}
	}
	b.check(t, lt, 0, n-1)
}
