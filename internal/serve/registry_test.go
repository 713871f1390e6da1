package serve

import (
	"errors"
	"testing"

	"pmsf"
)

func testGraph(n, m int, seed uint64) *pmsf.Graph {
	return pmsf.RandomGraph(n, m, seed)
}

func TestRegistryRegisterAcquireRemove(t *testing.T) {
	r := NewRegistry(0, NewMetrics())
	g := testGraph(100, 300, 1)
	info, err := r.Register("g1", g)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "g1" || info.N != 100 || info.M != 300 || info.Refs != 0 {
		t.Errorf("info = %+v", info)
	}
	if _, err := r.Register("g1", g); !errors.Is(err, ErrGraphExists) {
		t.Errorf("duplicate register: %v, want ErrGraphExists", err)
	}

	lease, err := r.Acquire("g1")
	if err != nil {
		t.Fatal(err)
	}
	if lease.Graph != g || lease.Version != info.Version {
		t.Error("lease does not expose the registered graph")
	}
	if got, _ := r.Get("g1"); got.Refs != 1 {
		t.Errorf("refs = %d, want 1", got.Refs)
	}
	lease.Release()
	lease.Release() // idempotent
	if got, _ := r.Get("g1"); got.Refs != 0 {
		t.Errorf("refs after release = %d, want 0", got.Refs)
	}

	if err := r.Remove("g1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire("g1"); !errors.Is(err, ErrGraphNotFound) {
		t.Errorf("acquire removed graph: %v, want ErrGraphNotFound", err)
	}
	if err := r.Remove("g1"); !errors.Is(err, ErrGraphNotFound) {
		t.Errorf("double remove: %v, want ErrGraphNotFound", err)
	}
	if r.Bytes() != 0 {
		t.Errorf("bytes after remove = %d, want 0", r.Bytes())
	}
}

// TestRegistryDeferredFree: DELETE while a query holds a lease must
// keep the graph (and its bytes) alive until the last release.
func TestRegistryDeferredFree(t *testing.T) {
	r := NewRegistry(0, NewMetrics())
	g := testGraph(50, 120, 2)
	if _, err := r.Register("g", g); err != nil {
		t.Fatal(err)
	}
	want := GraphBytes(g)

	lease, err := r.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("g"); err != nil {
		t.Fatal(err)
	}
	if r.Bytes() != want {
		t.Errorf("bytes while leased = %d, want %d (deferred free)", r.Bytes(), want)
	}
	if lease.Graph.N != 50 {
		t.Error("leased graph gone after Remove")
	}
	lease.Release()
	if r.Bytes() != 0 {
		t.Errorf("bytes after last release = %d, want 0", r.Bytes())
	}
}

func TestRegistryByteCap(t *testing.T) {
	g := testGraph(50, 100, 3)
	cap := GraphBytes(g) + GraphBytes(g)/2 // fits one, not two
	r := NewRegistry(cap, NewMetrics())
	if _, err := r.Register("a", g); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("b", g); !errors.Is(err, ErrRegistryFull) {
		t.Errorf("over-cap register: %v, want ErrRegistryFull", err)
	}
	// Freeing room admits the second graph.
	if err := r.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("b", g); err != nil {
		t.Errorf("register after delete: %v", err)
	}
}

func TestRegistryList(t *testing.T) {
	r := NewRegistry(0, NewMetrics())
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := r.Register(name, testGraph(10, 20, 4)); err != nil {
			t.Fatal(err)
		}
	}
	got := r.List()
	if len(got) != 3 || got[0].Name != "alpha" || got[1].Name != "mid" || got[2].Name != "zeta" {
		t.Errorf("list not sorted by name: %+v", got)
	}
}
