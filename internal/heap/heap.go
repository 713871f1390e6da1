// Package heap implements an indexed binary min-heap with decrease-key,
// the priority queue behind the sequential Prim baseline and each
// processor's tree-growing loop in the MST-BC algorithm (Alg. 2 of the
// paper uses heap-insert, heap-extract-min and heap-decrease-key).
//
// Items are dense int32 identifiers in [0, capacity); each item carries a
// float64 key and an int32 payload (the edge that achieves the key).
// All three heaps order items by (key, payload), then by item id. With
// edge ids as payloads that is Kruskal's (weight, id) order, so Prim
// returns the same forest as Kruskal even under tied weights.
package heap

// IndexedHeap is a binary min-heap over items 0..cap-1 keyed by float64.
//
// pos[item] is the item's slot in the heap array, or -1 when absent.
// The zero value is not usable; call New.
type IndexedHeap struct {
	items []int32 // heap array of item ids
	keys  []float64
	pay   []int32
	pos   []int32
}

// New returns an empty heap able to hold items 0..capacity-1.
func New(capacity int) *IndexedHeap {
	h := &IndexedHeap{
		items: make([]int32, 0, 64),
		keys:  make([]float64, capacity),
		pay:   make([]int32, capacity),
		pos:   make([]int32, capacity),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len returns the number of items currently in the heap.
func (h *IndexedHeap) Len() int { return len(h.items) }

// Contains reports whether item is in the heap.
func (h *IndexedHeap) Contains(item int32) bool { return h.pos[item] >= 0 }

// Key returns the current key of item, which must be in the heap.
func (h *IndexedHeap) Key(item int32) float64 { return h.keys[item] }

// Payload returns the payload recorded for item, which must be in the
// heap (or have been the most recent popped value of the item).
func (h *IndexedHeap) Payload(item int32) int32 { return h.pay[item] }

// Push inserts item with the given key and payload. The item must not
// already be present.
func (h *IndexedHeap) Push(item int32, key float64, payload int32) {
	if h.pos[item] >= 0 {
		panic("heap: duplicate push")
	}
	h.keys[item] = key
	h.pay[item] = payload
	h.pos[item] = int32(len(h.items))
	h.items = append(h.items, item)
	h.up(len(h.items) - 1)
}

// DecreaseKey lowers item's key to key (recording the new payload) if
// (key, payload) orders before the current pair; it reports whether an
// update occurred. The item must be present.
func (h *IndexedHeap) DecreaseKey(item int32, key float64, payload int32) bool {
	if !before(key, payload, h.keys[item], h.pay[item]) {
		return false
	}
	h.keys[item] = key
	h.pay[item] = payload
	h.up(int(h.pos[item]))
	return true
}

// PushOrDecrease inserts the item if absent, otherwise applies
// DecreaseKey. This is the combined operation of Alg. 2's inner loop.
func (h *IndexedHeap) PushOrDecrease(item int32, key float64, payload int32) {
	if h.pos[item] >= 0 {
		h.DecreaseKey(item, key, payload)
		return
	}
	h.Push(item, key, payload)
}

// PopMin removes and returns the item with the smallest key along with
// its key and payload. It panics on an empty heap.
func (h *IndexedHeap) PopMin() (item int32, key float64, payload int32) {
	if len(h.items) == 0 {
		panic("heap: pop from empty heap")
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.swap(0, last)
	h.items = h.items[:last]
	h.pos[top] = -1
	if last > 0 {
		h.down(0)
	}
	return top, h.keys[top], h.pay[top]
}

// Reset empties the heap, leaving position bookkeeping consistent so the
// heap can be reused without reallocation (MST-BC grows many trees per
// worker from one heap).
func (h *IndexedHeap) Reset() {
	for _, it := range h.items {
		h.pos[it] = -1
	}
	h.items = h.items[:0]
}

func (h *IndexedHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if h.keys[a] != h.keys[b] {
		return h.keys[a] < h.keys[b]
	}
	if h.pay[a] != h.pay[b] {
		return h.pay[a] < h.pay[b]
	}
	return a < b
}

// before reports whether (k1, p1) orders before (k2, p2): by key, then
// by payload.
func before(k1 float64, p1 int32, k2 float64, p2 int32) bool {
	return k1 < k2 || (k1 == k2 && p1 < p2)
}

func (h *IndexedHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i]] = int32(i)
	h.pos[h.items[j]] = int32(j)
}

func (h *IndexedHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *IndexedHeap) down(i int) {
	n := len(h.items)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		smallest := l
		if r := l + 1; r < n && h.less(r, l) {
			smallest = r
		}
		if !h.less(smallest, i) {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
