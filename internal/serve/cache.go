package serve

import (
	"container/list"
	"sync"

	"pmsf"
)

// CacheKey addresses one computed result: the graph snapshot it ran on
// (the registered name and the Registry version of that snapshot) and
// everything the query asked for. It is also the job's specification:
// execute runs exactly what the key says, so the key and the run cannot
// disagree. Trace is not part of it, since it does not change the
// result.
type CacheKey struct {
	Name    string
	Version uint64
	Kind    QueryKind
	// Algo, BaseSize, Seed and SortEngine stay zero for components
	// queries, which ignore them, and BaseSize and SortEngine stay zero
	// for the engines that do not read them, so keys are canonical.
	Algo       pmsf.Algorithm
	Workers    int
	BaseSize   int
	Seed       uint64
	SortEngine pmsf.SortEngine
	// The include flags change the response payload, so an entry with
	// edge ids or labels is not one without them.
	IncludeEdges  bool
	IncludeLabels bool
}

// Cache is the LRU forest cache: identical re-queries are answered
// without an engine run. Entry count is the capacity unit (forests are
// O(n) but n varies per graph; the count cap keeps semantics simple and
// eviction observable).
type Cache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recent
	items   map[CacheKey]*list.Element
	metrics *Metrics
}

type cacheItem struct {
	key CacheKey
	res *Result
}

// NewCache returns an LRU cache holding up to capEntries results.
// capEntries <= 0 disables caching (every Get misses, Put drops).
func NewCache(capEntries int, m *Metrics) *Cache {
	return &Cache{cap: capEntries, ll: list.New(), items: make(map[CacheKey]*list.Element), metrics: m}
}

// Get returns the cached result for k, marking it most recently used.
func (c *Cache) Get(k CacheKey) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		if c.metrics != nil {
			c.metrics.CacheMisses.Add(1)
		}
		return nil, false
	}
	c.ll.MoveToFront(el)
	if c.metrics != nil {
		c.metrics.CacheHits.Add(1)
	}
	return el.Value.(*cacheItem).res, true
}

// Put stores res under k, evicting least-recently-used entries beyond
// the capacity.
func (c *Cache) Put(k CacheKey, res *Result) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*cacheItem).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&cacheItem{key: k, res: res})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheItem).key)
		if c.metrics != nil {
			c.metrics.CacheEvictions.Add(1)
		}
	}
	if c.metrics != nil {
		c.metrics.CacheEntries.Set(int64(c.ll.Len()))
	}
}

// Drop removes the entry under k, if there is one.
func (c *Cache) Drop(k CacheKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.Remove(el)
		delete(c.items, k)
		if c.metrics != nil {
			c.metrics.CacheEntries.Set(int64(c.ll.Len()))
		}
	}
}

// DropGraph removes every entry computed against any version of the
// named graph. Edge patches and DELETE call it: no later key can reach
// those entries, and they hold O(n) payloads. Returns the number of
// entries dropped.
func (c *Cache) DropGraph(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for k, el := range c.items {
		if k.Name != name {
			continue
		}
		c.ll.Remove(el)
		delete(c.items, k)
		dropped++
	}
	if dropped > 0 && c.metrics != nil {
		c.metrics.CacheInvalidations.Add(int64(dropped))
		c.metrics.CacheEntries.Set(int64(c.ll.Len()))
	}
	return dropped
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
