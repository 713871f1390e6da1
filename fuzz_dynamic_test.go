package pmsf_test

// FuzzDynamicParity decodes an arbitrary byte string into a starting
// graph and a stream of add/delete batches, applies them through
// pmsf.NewDynamic and ApplyEdges, and after every batch checks the
// maintained forest against SeqKruskal of the live edge set (weight,
// edge count, components) and against pmsf.Verify. A batch that deletes
// an edge not live before it must be rejected and leave the handle
// unchanged. Run continuously by the CI fuzz-smoke job.

import (
	"math"
	"slices"
	"testing"

	"pmsf"
)

// Record kinds of the dynamic fuzz stream: each 4-byte record after the
// starting graph is (op, a, b, c) with kind op%8.
const (
	dynFlush      = 0 // apply the pending batch
	dynAdd        = 1 // 1..3: add decodeFuzzEdge(a, b, selector op>>3, operand c)
	dynDelLive    = 4 // delete live edge number a<<8|b, as stored
	dynDelTree    = 5 // delete forest edge number a<<8|b
	dynDelFlipped = 6 // delete live edge number a<<8|b, endpoints swapped
	dynDelAbsent  = 7 // delete (a, b) at a weight no decoded edge can carry
)

// dynEngines are the seed engines a fuzz case can start the handle from.
var dynEngines = []pmsf.Algorithm{pmsf.MSTBC, pmsf.BorEL, pmsf.BorCAS}

// sameEdge reports whether a deletion d names edge e: endpoints in
// either orientation and exactly equal weight, as ApplyEdges matches.
func sameEdge(e, d pmsf.Edge) bool {
	return e.W == d.W && (e.U == d.U && e.V == d.V || e.U == d.V && e.V == d.U)
}

// removeDeleted returns live without one matching copy per deletion, or
// ok = false if some deletion matches no copy left.
func removeDeleted(live, del []pmsf.Edge) (rest []pmsf.Edge, ok bool) {
	rest = slices.Clone(live)
	for _, d := range del {
		i := slices.IndexFunc(rest, func(e pmsf.Edge) bool { return sameEdge(e, d) })
		if i < 0 {
			return nil, false
		}
		rest = slices.Delete(rest, i, i+1)
	}
	return rest, true
}

func FuzzDynamicParity(f *testing.F) {
	rec := func(op, a, b, c byte) []byte { return []byte{op, a, b, c} }
	add := func(sel, u, v, w byte) []byte { return rec(sel<<3|dynAdd, u, v, w) }
	flush := rec(dynFlush, 0, 0, 0)
	seed := func(n, engine, initial byte, recs ...[]byte) []byte {
		return append([]byte{n - 1, initial<<2 | engine}, slices.Concat(recs...)...)
	}
	// Tied weights: a 6-cycle at weight 1, more weight-1 chords, then
	// tree edges cut out of the all-ties forest.
	f.Add(seed(6, 0, 6,
		rec(0, 1, 1, 0), rec(1, 2, 1, 0), rec(2, 3, 1, 0), rec(3, 4, 1, 0), rec(4, 5, 1, 0), rec(5, 0, 1, 0),
		add(1, 0, 3, 0), add(1, 1, 4, 0), flush,
		rec(dynDelTree, 0, 0, 0), rec(dynDelTree, 0, 2, 0), flush,
		rec(dynDelTree, 0, 1, 0), add(3, 2, 5, 7), add(3, 0, 4, 7), flush))
	// Self-loops: live from the start, added, and deleted again.
	f.Add(seed(4, 1, 3,
		rec(0, 0, 3, 9), rec(2, 2, 0, 0), rec(1, 2, 5, 200),
		add(1, 3, 3, 0), add(4, 1, 1, 5), flush,
		rec(dynDelLive, 0, 0, 0), rec(dynDelLive, 0, 3, 0), flush))
	// Tree-edge deletions that split components and need replacements,
	// through Bor-CAS, with parallel edges and extreme weights.
	f.Add(seed(8, 2, 10,
		rec(0, 1, 3, 1), rec(1, 2, 3, 2), rec(2, 3, 3, 3), rec(3, 4, 3, 4), rec(4, 5, 3, 5),
		rec(5, 6, 3, 6), rec(6, 7, 3, 7), rec(0, 7, 6, 255), rec(2, 5, 7, 255), rec(1, 2, 3, 2),
		rec(dynDelTree, 0, 1, 0), rec(dynDelTree, 0, 3, 0), flush,
		rec(dynDelFlipped, 0, 6, 0), rec(dynDelTree, 0, 0, 0), flush,
		rec(dynDelTree, 0, 0, 0), rec(dynDelTree, 0, 1, 0), rec(dynDelTree, 0, 2, 0), flush))
	// Absent-edge deletions: rejected alone and beside valid work, then
	// a valid batch on the untouched handle.
	f.Add(seed(5, 0, 4,
		rec(0, 1, 3, 2), rec(1, 2, 3, 2), rec(2, 3, 5, 9), rec(3, 4, 3, 1),
		rec(dynDelAbsent, 0, 1, 0), flush,
		add(3, 0, 4, 1), rec(dynDelTree, 0, 0, 0), rec(dynDelAbsent, 2, 3, 7), flush,
		add(3, 0, 4, 1), rec(dynDelTree, 0, 0, 0), flush))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		n := 1 + int(data[0])%32
		engine := dynEngines[int(data[1]&3)%len(dynEngines)]
		initial := int(data[1] >> 2)
		recs := data[2:]
		const maxRecords = 512
		if len(recs) > 4*maxRecords {
			recs = recs[:4*maxRecords]
		}
		var live []pmsf.Edge
		for ; initial > 0 && len(recs) >= 4; initial-- {
			live = append(live, decodeFuzzEdge(n, recs[:4]))
			recs = recs[4:]
		}
		dyn, err := pmsf.NewDynamic(pmsf.NewGraph(n, slices.Clone(live)), engine, pmsf.Options{Workers: 2, Seed: 1})
		if err != nil {
			t.Fatalf("NewDynamic(%v): %v", engine, err)
		}
		checkDynamicForest(t, dyn, n, live, nil)

		var adds, dels []pmsf.Edge
		apply := func(batch int) {
			beforeG, beforeF := dyn.SnapshotWithForest()
			delta, err := dyn.ApplyEdges(adds, dels)
			rest, valid := removeDeleted(live, dels)
			switch {
			case !valid && err == nil:
				t.Fatalf("batch %d: deletions %v name edges not live, yet the batch was accepted", batch, dels)
			case !valid:
				afterG, afterF := dyn.SnapshotWithForest()
				if !slices.Equal(afterG.Edges, beforeG.Edges) || !slices.Equal(afterF.EdgeIDs, beforeF.EdgeIDs) ||
					afterF.Components != beforeF.Components {
					t.Fatalf("batch %d: rejected batch (%v) changed the handle", batch, err)
				}
			case err != nil:
				t.Fatalf("batch %d: valid batch rejected: %v", batch, err)
			default:
				live = append(rest, adds...)
				checkDynamicForest(t, dyn, n, live, &delta)
			}
			adds, dels = nil, nil
		}
		batch := 0
		for i := 0; i+4 <= len(recs); i += 4 {
			op, a, b, c := recs[i], recs[i+1], recs[i+2], recs[i+3]
			pick := int(a)<<8 | int(b)
			switch kind := op % 8; {
			case kind == dynFlush:
				apply(batch)
				batch++
			case kind < dynDelLive:
				adds = append(adds, decodeFuzzEdge(n, []byte{a, b, op >> 3, c}))
			case kind == dynDelLive && len(live) > 0:
				dels = append(dels, live[pick%len(live)])
			case kind == dynDelFlipped && len(live) > 0:
				e := live[pick%len(live)]
				dels = append(dels, pmsf.Edge{U: e.V, V: e.U, W: e.W})
			case kind == dynDelTree:
				g, forest := dyn.SnapshotWithForest()
				if forest.Size() > 0 {
					dels = append(dels, g.Edges[forest.EdgeIDs[pick%forest.Size()]])
				}
			case kind == dynDelAbsent:
				// Decoded weights are dyadic rationals; c + 0.1 is not.
				dels = append(dels, pmsf.Edge{U: int32(int(a) % n), V: int32(int(b) % n), W: float64(c) + 0.1})
			}
		}
		if len(adds)+len(dels) > 0 {
			apply(batch)
		}
	})
}

// checkDynamicForest compares the handle's forest with SeqKruskal of
// live, the edge set the handle should hold, and runs pmsf.Verify on it.
// delta, when non-nil, is the report of the batch just applied.
func checkDynamicForest(t *testing.T, dyn *pmsf.Dynamic, n int, live []pmsf.Edge, delta *pmsf.DynamicDelta) {
	t.Helper()
	g, forest := dyn.SnapshotWithForest()
	if len(g.Edges) != len(live) {
		t.Fatalf("handle holds %d live edges, want %d", len(g.Edges), len(live))
	}
	if err := pmsf.Verify(g, forest); err != nil {
		t.Fatalf("maintained forest fails Verify: %v", err)
	}
	ref, _, err := pmsf.MinimumSpanningForest(pmsf.NewGraph(n, slices.Clone(live)), pmsf.SeqKruskal, pmsf.Options{})
	if err != nil {
		t.Fatalf("Kruskal of the live edges: %v", err)
	}
	tol := 1e-9 * (1 + math.Abs(ref.Weight))
	if forest.Size() != ref.Size() || forest.Components != ref.Components || math.Abs(forest.Weight-ref.Weight) > tol {
		t.Fatalf("forest has %d edges / %d components / weight %v, Kruskal %d / %d / %v",
			forest.Size(), forest.Components, forest.Weight, ref.Size(), ref.Components, ref.Weight)
	}
	if delta != nil && (delta.ForestSize != ref.Size() || delta.Components != ref.Components ||
		math.Abs(delta.Weight-ref.Weight) > tol) {
		t.Fatalf("delta reports %d edges / %d components / weight %v, Kruskal %d / %d / %v",
			delta.ForestSize, delta.Components, delta.Weight, ref.Size(), ref.Components, ref.Weight)
	}
}
