package heap

// DaryHeap is an indexed d-ary min-heap with decrease-key. Wider nodes
// trade more sift-down comparisons for a shallower tree and better cache
// behaviour on decrease-key-heavy workloads like Prim — the third
// contender in the priority-queue comparison (Moret and Shapiro's study
// includes d-heaps; see seq.PrimWithHeap and
// BenchmarkAblationPrimHeap).
type DaryHeap struct {
	d     int
	items []int32
	keys  []float64
	pay   []int32
	pos   []int32
}

// NewDary returns an empty d-ary heap over items 0..capacity-1. d must
// be at least 2 (4 is the classic cache-friendly choice).
func NewDary(d, capacity int) *DaryHeap {
	if d < 2 {
		panic("heap: d must be >= 2")
	}
	h := &DaryHeap{
		d:     d,
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

// Len returns the number of items in the heap.
func (h *DaryHeap) Len() int { return len(h.items) }

// Contains reports whether item is present.
func (h *DaryHeap) Contains(item int32) bool { return h.pos[item] >= 0 }

// Key returns item's current key.
func (h *DaryHeap) Key(item int32) float64 { return h.keys[item] }

// Payload returns item's payload.
func (h *DaryHeap) Payload(item int32) int32 { return h.pay[item] }

// Push inserts item; it must not be present.
func (h *DaryHeap) Push(item int32, key float64, payload int32) {
	if h.pos[item] >= 0 {
		panic("heap: duplicate push")
	}
	h.keys[item] = key
	h.pay[item] = payload
	h.pos[item] = int32(len(h.items))
	h.items = append(h.items, item)
	h.up(len(h.items) - 1)
}

// DecreaseKey lowers item's key if (key, payload) orders before the
// current pair; reports whether an update occurred.
func (h *DaryHeap) DecreaseKey(item int32, key float64, payload int32) bool {
	if !before(key, payload, h.keys[item], h.pay[item]) {
		return false
	}
	h.keys[item] = key
	h.pay[item] = payload
	h.up(int(h.pos[item]))
	return true
}

// PushOrDecrease inserts or decreases.
func (h *DaryHeap) PushOrDecrease(item int32, key float64, payload int32) {
	if h.pos[item] >= 0 {
		h.DecreaseKey(item, key, payload)
		return
	}
	h.Push(item, key, payload)
}

// PopMin removes and returns the minimum item.
func (h *DaryHeap) PopMin() (item int32, key float64, payload int32) {
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

// Reset empties the heap for reuse.
func (h *DaryHeap) Reset() {
	for _, it := range h.items {
		h.pos[it] = -1
	}
	h.items = h.items[:0]
}

func (h *DaryHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if h.keys[a] != h.keys[b] {
		return h.keys[a] < h.keys[b]
	}
	if h.pay[a] != h.pay[b] {
		return h.pay[a] < h.pay[b]
	}
	return a < b
}

func (h *DaryHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i]] = int32(i)
	h.pos[h.items[j]] = int32(j)
}

func (h *DaryHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / h.d
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *DaryHeap) down(i int) {
	n := len(h.items)
	for {
		first := h.d*i + 1
		if first >= n {
			return
		}
		smallest := first
		end := first + h.d
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h.less(c, smallest) {
				smallest = c
			}
		}
		if !h.less(smallest, i) {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
