package dynmsf

import (
	"fmt"
	"sync"
	"testing"

	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/rng"
	"pmsf/internal/seq"
	"pmsf/internal/verify"
)

// weightMode parameterizes the differential matrix: the adversarial
// weight distributions that stress the perturbed (W, id) tie-breaking.
type weightMode struct {
	name string
	draw func(r *rng.Xoshiro256) float64
}

var weightModes = []weightMode{
	{"uniform", func(r *rng.Xoshiro256) float64 { return r.Float64() }},
	{"duplicates", func(r *rng.Xoshiro256) float64 { return float64(r.Intn(4)) }},
	{"all-equal", func(r *rng.Xoshiro256) float64 { return 1.0 }},
	{"negative", func(r *rng.Xoshiro256) float64 { return r.Float64()*4 - 3 }},
}

// TestRandomDifferential replays random mutation batches through a
// handle and checks after every batch that the maintained forest is the
// exact MSF of the live graph (verify.Minimum recomputes a reference
// Kruskal), across the weight matrix.
func TestRandomDifferential(t *testing.T) {
	for _, wm := range weightModes {
		t.Run(wm.name+"/incremental", func(t *testing.T) {
			runDifferential(t, wm, 0xD0+uint64(len(wm.name)))
		})
	}
}

func runDifferential(t *testing.T, wm weightMode, seed uint64) {
	t.Helper()
	const (
		n       = 60
		baseM   = 150
		batches = 30
	)
	r := rng.New(seed)
	base := &graph.EdgeList{N: n}
	for i := 0; i < baseM; i++ {
		base.Edges = append(base.Edges, randomTestEdge(n, r, wm.draw))
	}
	h, err := New(base, seq.Kruskal(base), Options{})
	if err != nil {
		t.Fatal(err)
	}
	live := append([]graph.Edge(nil), base.Edges...)

	for b := 0; b < batches; b++ {
		var add, del []graph.Edge
		// Heavy-deletion batches periodically force disconnections; the
		// following batch's adds tend to reconnect.
		delWant := r.Intn(20)
		if b%7 == 3 {
			delWant = len(live) / 2
		}
		for i := 0; i < delWant && len(live) > 0; i++ {
			j := r.Intn(len(live))
			del = append(del, live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		addWant := r.Intn(25)
		if b%7 == 4 {
			addWant = 80 // reconnection burst
		}
		for i := 0; i < addWant; i++ {
			e := randomTestEdge(n, r, wm.draw)
			if i%9 == 5 {
				e.U = e.V // exercise self-loops
			}
			add = append(add, e)
			live = append(live, e)
		}

		d, err := h.ApplyEdges(add, del)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		g, f := h.SnapshotWithForest()
		if len(g.Edges) != len(live) {
			t.Fatalf("batch %d: snapshot has %d edges, reference has %d", b, len(g.Edges), len(live))
		}
		if !sameMultiset(g.Edges, live) {
			t.Fatalf("batch %d: snapshot edge multiset diverged from reference", b)
		}
		if err := verify.Minimum(g, f); err != nil {
			t.Fatalf("batch %d (%s): %v\ndelta %+v", b, wm.name, err, d)
		}
		if d.Components != f.Components {
			t.Fatalf("batch %d: delta components %d, forest reports %d", b, d.Components, f.Components)
		}
	}
}

func randomTestEdge(n int, r *rng.Xoshiro256, draw func(*rng.Xoshiro256) float64) graph.Edge {
	u := int32(r.Intn(n))
	v := int32(r.Intn(n - 1))
	if v >= u {
		v++
	}
	return graph.Edge{U: u, V: v, W: draw(r)}
}

// sameMultiset compares edge multisets up to orientation: deletion by
// value is orientation-insensitive (the graph is undirected), so the
// handle may consume a (v,u,w) copy where the reference removed (u,v,w).
func sameMultiset(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	canon := func(e graph.Edge) graph.Edge {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		return e
	}
	count := make(map[graph.Edge]int, len(a))
	for _, e := range a {
		count[canon(e)]++
	}
	for _, e := range b {
		ce := canon(e)
		count[ce]--
		if count[ce] < 0 {
			return false
		}
	}
	return true
}

// TestReplayAgainstScratchRecompute drives a generated sliding-window
// stream through a handle and cross-checks the weight against a
// from-scratch sequential Kruskal after every batch — the same contract
// msf-verify -replay enforces.
func TestReplayAgainstScratchRecompute(t *testing.T) {
	base := gen.Random(300, 1200, 17)
	stream := gen.SlidingWindowStream(base, 600, len(base.Edges), 120, 99)
	h, err := New(base, seq.Kruskal(base), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range stream.Batches {
		if _, err := h.ApplyEdges(b.Add, b.Del); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		g, f := h.SnapshotWithForest()
		ref := seq.Kruskal(g)
		if diff := f.Weight - ref.Weight; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("batch %d: dynamic weight %.12g vs scratch %.12g", i, f.Weight, ref.Weight)
		}
		if f.Components != ref.Components {
			t.Fatalf("batch %d: components %d vs %d", i, f.Components, ref.Components)
		}
	}
}

// TestConcurrentReaders hammers the handle with queries while a writer
// applies batches. Queries block on the handle's read lock during
// ApplyEdges (the documented semantics), so under -race this must be
// clean, and every observed snapshot must be internally consistent.
func TestConcurrentReaders(t *testing.T) {
	base := gen.Random(120, 500, 5)
	h, err := New(base, seq.Kruskal(base), Options{})
	if err != nil {
		t.Fatal(err)
	}
	stream := gen.SlidingWindowStream(base, 400, len(base.Edges), 40, 6)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g, f := h.SnapshotWithForest()
				if err := verify.Forest(g, f); err != nil {
					select {
					case errc <- fmt.Errorf("inconsistent snapshot: %w", err):
					default:
					}
					return
				}
			}
		}()
	}
	for i, b := range stream.Batches {
		if _, err := h.ApplyEdges(b.Add, b.Del); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	checkMinimum(t, h)
}
