package pmsf_test

import (
	"bytes"
	"testing"

	"pmsf"
)

// TestFingerprintDeterministic: the same graph serialized and re-parsed
// must hash identically — the property the forest cache depends on when
// a client re-uploads the same file.
func TestFingerprintDeterministic(t *testing.T) {
	g := pmsf.RandomGraph(500, 2000, 7)
	want := pmsf.Fingerprint(g)

	if got := pmsf.Fingerprint(g); got != want {
		t.Fatalf("Fingerprint not stable across calls: %#x then %#x", want, got)
	}

	for _, format := range []pmsf.GraphFormat{pmsf.FormatBinary, pmsf.FormatText} {
		var buf bytes.Buffer
		if err := pmsf.WriteGraph(&buf, g, format); err != nil {
			t.Fatalf("WriteGraph(%v): %v", format, err)
		}
		g2, err := pmsf.ReadGraph(&buf, format)
		if err != nil {
			t.Fatalf("ReadGraph(%v): %v", format, err)
		}
		if got := pmsf.Fingerprint(g2); got != want {
			t.Errorf("%v round trip changed the fingerprint: %#x -> %#x", format, want, got)
		}
	}

	if got := pmsf.Fingerprint(g.Clone()); got != want {
		t.Errorf("Clone changed the fingerprint: %#x -> %#x", want, got)
	}
}

// TestFingerprintNearCollisions: minimal edits — one weight nudged, one
// endpoint flipped, one vertex added — must change the hash.
func TestFingerprintNearCollisions(t *testing.T) {
	base := pmsf.RandomGraph(200, 800, 11)
	want := pmsf.Fingerprint(base)

	mutate := func(name string, f func(g *pmsf.Graph)) {
		g := base.Clone()
		f(g)
		if got := pmsf.Fingerprint(g); got == want {
			t.Errorf("%s: fingerprint unchanged (%#x)", name, got)
		}
	}
	mutate("one weight flipped", func(g *pmsf.Graph) { g.Edges[397].W += 0.5 })
	mutate("one endpoint flipped", func(g *pmsf.Graph) {
		e := &g.Edges[42]
		e.U, e.V = e.V, e.U
	})
	mutate("one endpoint moved", func(g *pmsf.Graph) { g.Edges[0].U = (g.Edges[0].U + 1) % 200 })
	mutate("vertex count changed", func(g *pmsf.Graph) { g.N++ })
	mutate("last edge dropped", func(g *pmsf.Graph) { g.Edges = g.Edges[:len(g.Edges)-1] })
	mutate("two edges swapped", func(g *pmsf.Graph) {
		g.Edges[1], g.Edges[2] = g.Edges[2], g.Edges[1]
	})
}

// TestFingerprintEmptyAndTiny pins the edge cases: empty graphs of
// different N differ, and a self-loop still contributes.
func TestFingerprintEmptyAndTiny(t *testing.T) {
	e0 := pmsf.Fingerprint(pmsf.NewGraph(0, nil))
	e1 := pmsf.Fingerprint(pmsf.NewGraph(1, nil))
	if e0 == e1 {
		t.Errorf("empty graphs with N=0 and N=1 collide: %#x", e0)
	}
	loop := pmsf.NewGraph(1, []pmsf.Edge{{U: 0, V: 0, W: 1}})
	if got := pmsf.Fingerprint(loop); got == e1 {
		t.Errorf("self-loop graph collides with empty graph: %#x", got)
	}
}

// TestHashOptions: instrumentation toggles must not change the hash
// (cached forests stay valid), semantic fields must.
func TestHashOptions(t *testing.T) {
	base := pmsf.Options{Workers: 4, Seed: 42}
	want := pmsf.HashOptions(pmsf.BorEL, base)

	same := base
	same.Metrics = true
	same.Trace = pmsf.NewTrace()
	if got := pmsf.HashOptions(pmsf.BorEL, same); got != want {
		t.Errorf("instrumentation options changed the hash: %#x -> %#x", want, got)
	}

	diff := func(name string, algo pmsf.Algorithm, opt pmsf.Options) {
		if got := pmsf.HashOptions(algo, opt); got == want {
			t.Errorf("%s: hash unchanged (%#x)", name, got)
		}
	}
	diff("different algorithm", pmsf.MSTBC, base)
	w2 := base
	w2.Workers = 2
	diff("different workers", pmsf.BorEL, w2)
	s2 := base
	s2.Seed = 43
	diff("different seed", pmsf.BorEL, s2)
	e2 := base
	e2.SortEngine = pmsf.SortSampleSort
	diff("different sort engine", pmsf.BorEL, e2)
	b2 := base
	b2.BaseSize = 128
	diff("different base size", pmsf.BorEL, b2)
}
