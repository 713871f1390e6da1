package pmsf_test

// FuzzDynamicParity decodes an arbitrary byte string into a starting
// graph and a stream of add/delete batches, applies them through
// pmsf.NewDynamic and ApplyEdges, and after every batch checks the
// maintained forest against SeqKruskal of the live edge set (weight,
// edge count, components) and against pmsf.Verify. A batch that deletes
// an edge not live before it must be rejected and leave the handle
// unchanged. FuzzServePatchParity pushes the same decoded stream
// through PATCH /v1/graphs/{name}/edges of an in-process msf-serve and
// checks each response delta and the re-query of the patched graph
// against the same reference. Both run continuously in the CI
// fuzz-smoke job.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pmsf"
	"pmsf/internal/serve"
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

// addDynamicSeeds adds the seed corpus both dynamic fuzz targets share.
func addDynamicSeeds(f *testing.F) {
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
}

func FuzzDynamicParity(f *testing.F) {
	addDynamicSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) { fuzzDynamicStream(t, data, nil) })
}

func FuzzServePatchParity(f *testing.F) {
	addDynamicSeeds(f)
	ps := newPatchServer(f)
	f.Fuzz(func(t *testing.T, data []byte) { fuzzDynamicStream(t, data, ps.target(t)) })
}

// fuzzDynamicStream decodes data into a starting graph and batches and
// applies them to a library handle, checking every batch against
// Kruskal of the live edges. With pt non-nil every batch also goes to
// the server as a PATCH, whose delta and re-query are checked too.
func fuzzDynamicStream(t *testing.T, data []byte, pt *patchTarget) {
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
	if pt != nil {
		pt.register(t, n, live)
	}

	var adds, dels []pmsf.Edge
	patched := false
	apply := func(batch int) {
		beforeG, beforeF := dyn.SnapshotWithForest()
		delta, err := dyn.ApplyEdges(adds, dels)
		rest, valid := removeDeleted(live, dels)
		var code int
		var pr serve.PatchResponse
		if pt != nil {
			code, pr = pt.patch(t, adds, dels)
		}
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
		if pt != nil {
			patched = patched || valid
			pt.check(t, batch, valid, code, pr, patched, kruskalOf(t, n, live))
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
	ref := kruskalOf(t, n, live)
	checkAgainst(t, "forest", forest.Weight, forest.Size(), forest.Components, ref)
	if delta != nil {
		checkAgainst(t, "delta", delta.Weight, delta.ForestSize, delta.Components, ref)
	}
}

// kruskalOf is the reference forest of the live edges.
func kruskalOf(t *testing.T, n int, live []pmsf.Edge) *pmsf.Forest {
	t.Helper()
	ref, _, err := pmsf.MinimumSpanningForest(pmsf.NewGraph(n, slices.Clone(live)), pmsf.SeqKruskal, pmsf.Options{})
	if err != nil {
		t.Fatalf("Kruskal of the live edges: %v", err)
	}
	return ref
}

// checkAgainst compares one reported (weight, edges, components) triple
// with the reference forest.
func checkAgainst(t *testing.T, what string, weight float64, size, components int, ref *pmsf.Forest) {
	t.Helper()
	tol := 1e-9 * (1 + math.Abs(ref.Weight))
	if size != ref.Size() || components != ref.Components || math.Abs(weight-ref.Weight) > tol {
		t.Fatalf("%s reports %d edges / %d components / weight %v, Kruskal %d / %d / %v",
			what, size, components, weight, ref.Size(), ref.Components, ref.Weight)
	}
}

// patchTarget is one fuzz case's graph on the process's in-process
// server, registered under a name of its own and mutated through PATCH
// /v1/graphs/{name}/edges.
type patchTarget struct {
	url, name string
}

// patchServer is the in-process server every case of one fuzz process
// shares; it shuts down when the fuzz target returns.
type patchServer struct {
	url   string
	cases atomic.Int64 // numbers the cases, so each registers a fresh graph name
}

func newPatchServer(f *testing.F) *patchServer {
	s := serve.New(serve.Config{Workers: 1, RatePerSecond: -1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	f.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return &patchServer{url: ts.URL}
}

// target returns a graph name of the case's own on the server. The
// result cache is keyed by graph name as well as content, so no case is
// answered from another case's cached result; the graph is deleted when
// the case ends.
func (ps *patchServer) target(t *testing.T) *patchTarget {
	pt := &patchTarget{url: ps.url, name: fmt.Sprintf("fuzz-%d", ps.cases.Add(1))}
	t.Cleanup(func() {
		if code := pt.call(t, "DELETE", "/v1/graphs/"+pt.name, nil, nil); code != http.StatusOK && code != http.StatusNotFound {
			t.Errorf("delete %s: status %d", pt.name, code)
		}
	})
	return pt
}

// call issues one request and decodes its JSON body into out; a body
// that is not valid JSON fails the test, whatever the status.
func (pt *patchTarget) call(t *testing.T, method, path string, body []byte, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, pt.url+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		out = new(map[string]any)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("%s %s: status %d, body %q is not JSON: %v", method, path, resp.StatusCode, data, err)
	}
	return resp.StatusCode
}

// register uploads the starting graph.
func (pt *patchTarget) register(t *testing.T, n int, live []pmsf.Edge) {
	t.Helper()
	var buf bytes.Buffer
	if err := pmsf.WriteGraph(&buf, pmsf.NewGraph(n, live), pmsf.FormatText); err != nil {
		t.Fatal(err)
	}
	if code := pt.call(t, "POST", "/v1/graphs/"+pt.name+"?format=text", buf.Bytes(), nil); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
}

func (pt *patchTarget) patch(t *testing.T, adds, dels []pmsf.Edge) (int, serve.PatchResponse) {
	t.Helper()
	var req serve.PatchRequest
	for _, e := range adds {
		req.Add = append(req.Add, serve.PatchEdge{U: e.U, V: e.V, W: e.W})
	}
	for _, e := range dels {
		req.Del = append(req.Del, serve.PatchEdge{U: e.U, V: e.V, W: e.W})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var pr serve.PatchResponse
	code := pt.call(t, "PATCH", "/v1/graphs/"+pt.name+"/edges", body, &pr)
	return code, pr
}

// check asserts a PATCH answered like the library did: 400 for a batch
// the library rejected, else 200 with a delta matching ref. It then
// re-queries the graph, which must match ref too and, once a patch has
// been applied, come from the maintained forest.
func (pt *patchTarget) check(t *testing.T, batch int, valid bool, code int, pr serve.PatchResponse, patched bool, ref *pmsf.Forest) {
	t.Helper()
	switch {
	case !valid && code != http.StatusBadRequest:
		t.Fatalf("batch %d: PATCH of an invalid batch: status %d, want 400", batch, code)
	case valid && code != http.StatusOK:
		t.Fatalf("batch %d: PATCH of a valid batch: status %d, want 200", batch, code)
	case valid:
		checkAgainst(t, fmt.Sprintf("batch %d PATCH delta", batch), pr.Delta.Weight, pr.Delta.ForestSize, pr.Delta.Components, ref)
	}
	body, err := json.Marshal(serve.QueryRequest{Graph: pt.name})
	if err != nil {
		t.Fatal(err)
	}
	var qr serve.QueryResponse
	if code := pt.call(t, "POST", "/v1/queries", body, &qr); code != http.StatusOK || qr.Result == nil {
		t.Fatalf("batch %d: re-query: status %d, %+v", batch, code, qr)
	}
	if patched && qr.Result.Algorithm != "dynamic" {
		t.Fatalf("batch %d: re-query answered by %q, want the maintained forest", batch, qr.Result.Algorithm)
	}
	checkAgainst(t, fmt.Sprintf("batch %d re-query", batch), qr.Result.Weight, qr.Result.ForestSize, qr.Result.Components, ref)
}
