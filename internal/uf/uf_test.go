package uf

import (
	"testing"

	"pmsf/internal/par"
	"pmsf/internal/rng"
)

func TestSequentialBasics(t *testing.T) {
	u := New(5)
	if u.Count() != 5 {
		t.Fatalf("initial count %d", u.Count())
	}
	if !u.Union(0, 1) {
		t.Fatal("first union failed")
	}
	if u.Union(1, 0) {
		t.Fatal("repeat union succeeded")
	}
	if !u.Same(0, 1) || u.Same(0, 2) {
		t.Fatal("membership wrong")
	}
	u.Union(2, 3)
	u.Union(0, 3)
	if u.Count() != 2 {
		t.Fatalf("count %d, want 2", u.Count())
	}
	if !u.Same(1, 2) {
		t.Fatal("transitive union broken")
	}
}

func TestSequentialSingleton(t *testing.T) {
	u := New(1)
	if u.Find(0) != 0 || u.Count() != 1 {
		t.Fatal("singleton broken")
	}
}

// partitionSignature canonicalizes a partition as root-of-each-element,
// relabelled by first occurrence, so two structures can be compared.
func partitionSignature(find func(int32) int32, n int) []int32 {
	label := map[int32]int32{}
	out := make([]int32, n)
	for i := 0; i < n; i++ {
		r := find(int32(i))
		if _, ok := label[r]; !ok {
			label[r] = int32(len(label))
		}
		out[i] = label[r]
	}
	return out
}

func TestConcurrentMatchesSequential(t *testing.T) {
	const n = 2000
	r := rng.New(1)
	type pair struct{ a, b int32 }
	pairs := make([]pair, 5000)
	for i := range pairs {
		pairs[i] = pair{int32(r.Intn(n)), int32(r.Intn(n))}
	}

	seq := New(n)
	for _, p := range pairs {
		seq.Union(p.a, p.b)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		con := NewConcurrent(n)
		team := par.NewTeam(workers)
		team.For(len(pairs), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				con.Union(pairs[i].a, pairs[i].b)
			}
		})
		team.Close()
		sigSeq := partitionSignature(seq.Find, n)
		sigCon := partitionSignature(con.Find, n)
		for i := range sigSeq {
			if sigSeq[i] != sigCon[i] {
				t.Fatalf("workers=%d: partitions differ at element %d", workers, i)
			}
		}
	}
}

func TestConcurrentUnionCount(t *testing.T) {
	// Exactly n-1 successful unions can occur when connecting n elements
	// into one set, no matter how racy the interleaving.
	const n = 1000
	con := NewConcurrent(n)
	var successes [8]int64
	team := par.NewTeam(8)
	defer team.Close()
	team.Run(func(w int) {
		r := rng.New(uint64(w) + 10)
		for i := 0; i < 5000; i++ {
			if con.Union(int32(r.Intn(n)), int32(r.Intn(n))) {
				successes[w]++
			}
		}
		// Finish the job deterministically.
		for i := int32(1); i < n; i++ {
			if con.Union(0, i) {
				successes[w]++
			}
		}
	})
	var total int64
	for _, s := range successes {
		total += s
	}
	if total != n-1 {
		t.Fatalf("%d successful unions, want %d", total, n-1)
	}
	for i := int32(1); i < n; i++ {
		if !con.Same(0, i) {
			t.Fatalf("element %d not merged", i)
		}
	}
}

func TestConcurrentSame(t *testing.T) {
	c := NewConcurrent(4)
	c.Union(0, 1)
	if !c.Same(0, 1) || c.Same(0, 2) {
		t.Fatal("Same wrong")
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func newHooks(n int) []int32 {
	hooks := make([]int32, n)
	for i := range hooks {
		hooks[i] = NoEdge
	}
	return hooks
}

func TestUnionEdgeSequential(t *testing.T) {
	c := NewConcurrent(4)
	hooks := newHooks(4)
	if !c.UnionEdge(0, 1, 7, hooks) {
		t.Fatal("first union failed")
	}
	if c.UnionEdge(1, 0, 8, hooks) {
		t.Fatal("repeat union succeeded")
	}
	if !c.UnionEdge(2, 3, 9, hooks) || !c.UnionEdge(0, 3, 10, hooks) {
		t.Fatal("unions failed")
	}
	// Exactly three hooks claimed, carrying the successful edge ids.
	var got []int32
	for _, h := range hooks {
		if h != NoEdge {
			got = append(got, h)
		}
	}
	if len(got) != 3 {
		t.Fatalf("%d hooks claimed, want 3 (%v)", len(got), hooks)
	}
	seen := map[int32]bool{7: false, 9: false, 10: false}
	for _, id := range got {
		if _, ok := seen[id]; !ok {
			t.Fatalf("hook carries unexpected edge id %d", id)
		}
		seen[id] = true
	}
}

func TestUnionEdgeConcurrentForest(t *testing.T) {
	// Hammer UnionEdge from 8 workers (run with -race): at quiescence the
	// claimed hooks must number exactly n - components, and replaying the
	// hooked edges through a sequential union-find must reproduce the same
	// partition without ever closing a cycle.
	const n = 2000
	r := rng.New(3)
	type edge struct{ a, b, id int32 }
	edges := make([]edge, 6000)
	for i := range edges {
		edges[i] = edge{int32(r.Intn(n)), int32(r.Intn(n)), int32(i)}
	}
	for _, workers := range []int{1, 2, 8} {
		con := NewConcurrent(n)
		hooks := newHooks(n)
		team := par.NewTeam(workers)
		team.For(len(edges), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				e := edges[i]
				if e.a == e.b {
					continue
				}
				con.UnionEdge(e.a, e.b, e.id, hooks)
			}
		})
		team.Close()
		seq := New(n)
		claimed := 0
		for _, id := range hooks {
			if id == NoEdge {
				continue
			}
			claimed++
			e := edges[id]
			if !seq.Union(e.a, e.b) {
				t.Fatalf("workers=%d: hooked edge %d (%d-%d) closes a cycle", workers, id, e.a, e.b)
			}
		}
		if claimed != n-seq.Count() {
			t.Fatalf("workers=%d: %d hooks claimed, want %d", workers, claimed, n-seq.Count())
		}
		sigSeq := partitionSignature(seq.Find, n)
		sigCon := partitionSignature(con.Find, n)
		for i := range sigSeq {
			if sigSeq[i] != sigCon[i] {
				t.Fatalf("workers=%d: hooked forest partition differs at element %d", workers, i)
			}
		}
	}
}

func TestConcurrentStress(t *testing.T) {
	// Heavy contention on a small element set; run with -race.
	const n = 64
	c := NewConcurrent(n)
	team := par.NewTeam(8)
	defer team.Close()
	team.Run(func(w int) {
		r := rng.New(uint64(w) * 7)
		for i := 0; i < 20_000; i++ {
			c.Union(int32(r.Intn(n)), int32(r.Intn(n)))
			c.Find(int32(r.Intn(n)))
		}
	})
	// Everything merged with overwhelming probability.
	root := c.Find(0)
	for i := int32(1); i < n; i++ {
		if c.Find(i) != root {
			t.Fatalf("element %d not in the single component", i)
		}
	}
}
