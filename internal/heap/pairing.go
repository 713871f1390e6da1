package heap

// PairingHeap is an indexed pairing heap with decrease-key — the other
// classic priority queue in the Prim engineering literature (Moret and
// Shapiro's study, which the paper's experimental methodology follows,
// compares Prim over binary heaps against pairing heaps). It supports
// the same interface as IndexedHeap so the sequential Prim baseline can
// swap implementations (see seq.PrimWithHeap and
// BenchmarkAblationPrimHeap).
//
// Items are dense int32 identifiers in [0, capacity).
type PairingHeap struct {
	child   []int32
	sibling []int32
	prev    []int32 // parent if first child, else left sibling; -1 at root
	keys    []float64
	pay     []int32
	in      []bool
	root    int32
	size    int
	// scratch for the two-pass merge of PopMin
	pairs []int32
}

// NewPairing returns an empty pairing heap for items 0..capacity-1.
func NewPairing(capacity int) *PairingHeap {
	h := &PairingHeap{
		child:   make([]int32, capacity),
		sibling: make([]int32, capacity),
		prev:    make([]int32, capacity),
		keys:    make([]float64, capacity),
		pay:     make([]int32, capacity),
		in:      make([]bool, capacity),
		root:    -1,
	}
	for i := 0; i < capacity; i++ {
		h.child[i], h.sibling[i], h.prev[i] = -1, -1, -1
	}
	return h
}

// Len returns the number of items in the heap.
func (h *PairingHeap) Len() int { return h.size }

// Contains reports whether item is present.
func (h *PairingHeap) Contains(item int32) bool { return h.in[item] }

// Key returns item's current key; item must be present.
func (h *PairingHeap) Key(item int32) float64 { return h.keys[item] }

// Payload returns item's payload.
func (h *PairingHeap) Payload(item int32) int32 { return h.pay[item] }

// less orders items by (key, payload, id).
func (h *PairingHeap) less(a, b int32) bool {
	if h.keys[a] != h.keys[b] {
		return h.keys[a] < h.keys[b]
	}
	if h.pay[a] != h.pay[b] {
		return h.pay[a] < h.pay[b]
	}
	return a < b
}

// meld links two heap roots and returns the new root.
func (h *PairingHeap) meld(a, b int32) int32 {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	if h.less(b, a) {
		a, b = b, a
	}
	// b becomes a's first child.
	h.sibling[b] = h.child[a]
	if h.child[a] >= 0 {
		h.prev[h.child[a]] = b
	}
	h.child[a] = b
	h.prev[b] = a
	h.sibling[a] = -1
	h.prev[a] = -1
	return a
}

// Push inserts item; it must not be present.
func (h *PairingHeap) Push(item int32, key float64, payload int32) {
	if h.in[item] {
		panic("heap: duplicate push")
	}
	h.in[item] = true
	h.keys[item] = key
	h.pay[item] = payload
	h.child[item], h.sibling[item], h.prev[item] = -1, -1, -1
	h.root = h.meld(h.root, item)
	h.size++
}

// DecreaseKey lowers item's key if (key, payload) orders before the
// current pair; reports whether an update occurred. item must be
// present.
func (h *PairingHeap) DecreaseKey(item int32, key float64, payload int32) bool {
	if !before(key, payload, h.keys[item], h.pay[item]) {
		return false
	}
	h.keys[item] = key
	h.pay[item] = payload
	if item == h.root {
		return true
	}
	// Cut item from its position.
	p := h.prev[item]
	if h.child[p] == item {
		h.child[p] = h.sibling[item]
	} else {
		h.sibling[p] = h.sibling[item]
	}
	if h.sibling[item] >= 0 {
		h.prev[h.sibling[item]] = p
	}
	h.sibling[item] = -1
	h.prev[item] = -1
	h.root = h.meld(h.root, item)
	return true
}

// PushOrDecrease inserts the item if absent, otherwise decreases.
func (h *PairingHeap) PushOrDecrease(item int32, key float64, payload int32) {
	if h.in[item] {
		h.DecreaseKey(item, key, payload)
		return
	}
	h.Push(item, key, payload)
}

// PopMin removes and returns the minimum item with its key and payload.
func (h *PairingHeap) PopMin() (item int32, key float64, payload int32) {
	if h.size == 0 {
		panic("heap: pop from empty heap")
	}
	top := h.root
	h.in[top] = false
	h.size--

	// Two-pass pairing of the children.
	h.pairs = h.pairs[:0]
	c := h.child[top]
	for c >= 0 {
		next := h.sibling[c]
		h.sibling[c] = -1
		h.prev[c] = -1
		h.pairs = append(h.pairs, c)
		c = next
	}
	h.child[top] = -1
	// First pass: pair left to right.
	var merged []int32 = h.pairs
	n := len(merged)
	for i := 0; i+1 < n; i += 2 {
		merged[i/2] = h.meld(merged[i], merged[i+1])
	}
	half := n / 2
	if n%2 == 1 {
		merged[half] = merged[n-1]
		half++
	}
	// Second pass: fold right to left.
	root := int32(-1)
	for i := half - 1; i >= 0; i-- {
		root = h.meld(root, merged[i])
	}
	h.root = root
	return top, h.keys[top], h.pay[top]
}

// Reset empties the heap for reuse.
func (h *PairingHeap) Reset() {
	// Lazily detach: mark everything reachable as absent.
	if h.root >= 0 {
		h.clear(h.root)
	}
	h.root = -1
	h.size = 0
}

func (h *PairingHeap) clear(v int32) {
	// Iterative DFS over child/sibling pointers.
	stack := append(h.pairs[:0], v)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		h.in[x] = false
		if c := h.child[x]; c >= 0 {
			stack = append(stack, c)
		}
		if s := h.sibling[x]; s >= 0 {
			stack = append(stack, s)
		}
		h.child[x], h.sibling[x], h.prev[x] = -1, -1, -1
	}
	h.pairs = stack[:0]
}
