package main

import "pmsf"

// yardstick computes the minimum spanning forest with sequential Prim
// (CSR adjacency plus an indexed binary heap with decrease-key). It is
// the benchmark's own frozen copy of the fastest sequential algorithm for
// random sparse graphs (EXPERIMENTS.md, Fig. 3), so no change to the
// library can move the baseline every x_seq ratio divides by. Ties are
// broken by edge id, which makes the forest the unique MSF under the
// (weight, id) order the library's engines use; the same forest is the
// correctness oracle for every engine, dynamic batch and served answer.
func yardstick(g *pmsf.Graph) *pmsf.Forest {
	n := g.N
	off := make([]int64, n+1)
	for _, e := range g.Edges {
		if e.U == e.V {
			continue
		}
		off[e.U+1]++
		off[e.V+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	type arc struct {
		to, id int32
		w      float64
	}
	arcs := make([]arc, off[n])
	next := make([]int64, n)
	copy(next, off[:n])
	for id, e := range g.Edges {
		if e.U == e.V {
			continue
		}
		arcs[next[e.U]] = arc{to: e.V, id: int32(id), w: e.W}
		next[e.U]++
		arcs[next[e.V]] = arc{to: e.U, id: int32(id), w: e.W}
		next[e.V]++
	}

	h := newPrimHeap(n)
	visited := make([]bool, n)
	f := &pmsf.Forest{}
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		f.Components++
		v := int32(start)
		for {
			visited[v] = true
			for _, a := range arcs[off[v]:off[v+1]] {
				if !visited[a.to] {
					h.offer(a.to, a.w, a.id)
				}
			}
			if h.len() == 0 {
				break
			}
			var w float64
			var id int32
			v, w, id = h.pop()
			f.EdgeIDs = append(f.EdgeIDs, id)
			f.Weight += w
		}
	}
	return f
}

// primHeap is an indexed binary min-heap over vertices keyed by the
// (weight, edge id) of their lightest edge into the tree.
type primHeap struct {
	items []int32
	w     []float64
	id    []int32
	pos   []int32 // slot in items, -1 when absent
}

func newPrimHeap(n int) *primHeap {
	h := &primHeap{items: make([]int32, 0, 64), w: make([]float64, n), id: make([]int32, n), pos: make([]int32, n)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

func (h *primHeap) len() int { return len(h.items) }

// offer inserts v or lowers its key to (w, id) when that is smaller.
func (h *primHeap) offer(v int32, w float64, id int32) {
	p := h.pos[v]
	if p < 0 {
		h.w[v], h.id[v] = w, id
		h.pos[v] = int32(len(h.items))
		h.items = append(h.items, v)
		h.up(len(h.items) - 1)
		return
	}
	if w > h.w[v] || (w == h.w[v] && id >= h.id[v]) {
		return
	}
	h.w[v], h.id[v] = w, id
	h.up(int(p))
}

// pop removes the vertex with the smallest key.
func (h *primHeap) pop() (v int32, w float64, id int32) {
	v = h.items[0]
	last := len(h.items) - 1
	h.swap(0, last)
	h.items = h.items[:last]
	h.pos[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v, h.w[v], h.id[v]
}

func (h *primHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if h.w[a] != h.w[b] {
		return h.w[a] < h.w[b]
	}
	return h.id[a] < h.id[b]
}

func (h *primHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i]] = int32(i)
	h.pos[h.items[j]] = int32(j)
}

func (h *primHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *primHeap) down(i int) {
	n := len(h.items)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h.swap(i, m)
		i = m
	}
}
