package serve

import (
	"testing"

	"pmsf"
)

// key returns an MSF query key on version v of graph "g"; q picks the
// seed, so distinct q are distinct queries.
func key(v, q uint64) CacheKey {
	return CacheKey{Name: "g", Version: v, Kind: KindMSF, Algo: pmsf.MSTBC, Seed: q}
}

func TestCacheLRUEviction(t *testing.T) {
	m := NewMetrics()
	c := NewCache(2, m)
	r1, r2, r3 := &Result{Graph: "a"}, &Result{Graph: "b"}, &Result{Graph: "c"}

	c.Put(key(1, 1), r1)
	c.Put(key(2, 2), r2)
	if _, ok := c.Get(key(1, 1)); !ok {
		t.Fatal("r1 missing before eviction")
	}
	// r1 is now most-recent; inserting r3 must evict r2.
	c.Put(key(3, 3), r3)
	if _, ok := c.Get(key(2, 2)); ok {
		t.Error("r2 survived eviction; LRU order wrong")
	}
	if got, ok := c.Get(key(1, 1)); !ok || got != r1 {
		t.Error("r1 evicted although most recently used")
	}
	if got, ok := c.Get(key(3, 3)); !ok || got != r3 {
		t.Error("r3 missing after insert")
	}
	if m.CacheEvictions.Value() != 1 {
		t.Errorf("evictions = %d, want 1", m.CacheEvictions.Value())
	}
	// 3 hits, 1 miss so far (the evicted-r2 probe).
	if m.CacheHits.Value() != 3 || m.CacheMisses.Value() != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1", m.CacheHits.Value(), m.CacheMisses.Value())
	}
}

// TestCacheKeySeparation: changing any one field of the key, on the
// graph side or the query side, must miss the stored entry.
func TestCacheKeySeparation(t *testing.T) {
	base := CacheKey{Name: "g", Version: 3, Kind: KindMSF, Algo: pmsf.BorEL, Workers: 2, BaseSize: 64, Seed: 7}
	c := NewCache(16, NewMetrics())
	c.Put(base, &Result{Graph: "g"})
	if _, ok := c.Get(base); !ok {
		t.Fatal("identical key missed")
	}
	for _, tc := range []struct {
		field string
		edit  func(*CacheKey)
	}{
		{"name", func(k *CacheKey) { k.Name = "other" }},
		{"version", func(k *CacheKey) { k.Version++ }},
		{"kind", func(k *CacheKey) { k.Kind = KindComponents }},
		{"algo", func(k *CacheKey) { k.Algo = pmsf.BorFAL }},
		{"workers", func(k *CacheKey) { k.Workers++ }},
		{"base_size", func(k *CacheKey) { k.BaseSize++ }},
		{"seed", func(k *CacheKey) { k.Seed++ }},
		{"sort_engine", func(k *CacheKey) { k.SortEngine = pmsf.SortSampleSort }},
		{"include_edges", func(k *CacheKey) { k.IncludeEdges = true }},
		{"include_labels", func(k *CacheKey) { k.IncludeLabels = true }},
	} {
		k := base
		tc.edit(&k)
		if _, ok := c.Get(k); ok {
			t.Errorf("key differing only in %s hit the stored entry", tc.field)
		}
	}
}

func TestCacheUpdateExisting(t *testing.T) {
	c := NewCache(2, NewMetrics())
	c.Put(key(1, 1), &Result{Components: 1})
	c.Put(key(1, 1), &Result{Components: 2})
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1 (update, not insert)", c.Len())
	}
	if got, _ := c.Get(key(1, 1)); got.Components != 2 {
		t.Errorf("update did not replace the value: %+v", got)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(-1, NewMetrics())
	c.Put(key(1, 1), &Result{})
	if _, ok := c.Get(key(1, 1)); ok {
		t.Error("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Errorf("disabled cache holds %d entries", c.Len())
	}
}
