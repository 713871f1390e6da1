package serve

import "testing"

func key(g, q uint64) CacheKey { return CacheKey{Name: "g", Graph: g, Query: q} }

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

func TestCacheKeySeparation(t *testing.T) {
	c := NewCache(8, NewMetrics())
	c.Put(key(1, 1), &Result{Graph: "a"})
	if _, ok := c.Get(key(1, 2)); ok {
		t.Error("different query hash hit the same entry")
	}
	if _, ok := c.Get(key(2, 1)); ok {
		t.Error("different graph hash hit the same entry")
	}
	if _, ok := c.Get(CacheKey{Name: "other", Graph: 1, Query: 1}); ok {
		t.Error("different graph name with equal content hit the same entry")
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
