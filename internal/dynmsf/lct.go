package dynmsf

// lct is a splay-based link-cut tree (Sleator–Tarjan) over the
// maintained forest. Node 0 is the nil sentinel, vertex v is node v+1,
// and every forest edge has a node of its own, taken from a free list,
// spliced between its endpoints. Path aggregates therefore only ever
// see edges: each node keeps the maximum (W, id) edge of its splay
// subtree, so the heaviest edge on a tree path is one access away.
// Link, cut and path-max are O(log n) amortized.
type lct struct {
	t     []lctNode
	free  []int32 // unused edge nodes
	stack []int32 // splay push-down scratch
}

type lctNode struct {
	ch     [2]int32
	parent int32 // splay parent, or path-parent at a splay root
	flip   bool  // children of this subtree still to be swapped
	id     int32 // edge id of an edge node, -1 on vertex nodes
	maxID  int32 // heaviest (W, id) edge in the splay subtree, -1 none
	w      float64
	maxW   float64
}

// newLCT returns n isolated vertices with room for the n-1 edge nodes
// a forest on them can use.
func newLCT(n int) *lct {
	size := 1 + n
	if n > 0 {
		size += n - 1
	}
	lt := &lct{t: make([]lctNode, size), free: make([]int32, 0, size-1-n)}
	for i := range lt.t {
		lt.t[i].id, lt.t[i].maxID = -1, -1
	}
	for x := int32(size - 1); x > int32(n); x-- {
		lt.free = append(lt.free, x)
	}
	return lt
}

// heavier reports whether edge (wa, a) beats (wb, b) under (W, id);
// -1 means no edge.
func heavier(wa float64, a int32, wb float64, b int32) bool {
	if a < 0 || b < 0 {
		return b < 0 && a >= 0
	}
	return wa > wb || (wa == wb && a > b)
}

func (lt *lct) isRoot(x int32) bool {
	p := lt.t[x].parent
	return p == 0 || (lt.t[p].ch[0] != x && lt.t[p].ch[1] != x)
}

func (lt *lct) pull(x int32) {
	n := &lt.t[x]
	n.maxID, n.maxW = n.id, n.w
	for _, c := range n.ch {
		if c != 0 && heavier(lt.t[c].maxW, lt.t[c].maxID, n.maxW, n.maxID) {
			n.maxID, n.maxW = lt.t[c].maxID, lt.t[c].maxW
		}
	}
}

func (lt *lct) push(x int32) {
	n := &lt.t[x]
	if !n.flip {
		return
	}
	n.ch[0], n.ch[1] = n.ch[1], n.ch[0]
	lt.t[n.ch[0]].flip = !lt.t[n.ch[0]].flip
	lt.t[n.ch[1]].flip = !lt.t[n.ch[1]].flip
	n.flip = false
}

func (lt *lct) rotate(x int32) {
	y := lt.t[x].parent
	z := lt.t[y].parent
	dx := 0
	if lt.t[y].ch[1] == x {
		dx = 1
	}
	if !lt.isRoot(y) {
		if lt.t[z].ch[0] == y {
			lt.t[z].ch[0] = x
		} else {
			lt.t[z].ch[1] = x
		}
	}
	lt.t[x].parent = z
	b := lt.t[x].ch[dx^1]
	lt.t[y].ch[dx] = b
	if b != 0 {
		lt.t[b].parent = y
	}
	lt.t[x].ch[dx^1] = y
	lt.t[y].parent = x
	lt.pull(y)
}

func (lt *lct) splay(x int32) {
	s := append(lt.stack[:0], x)
	for y := x; !lt.isRoot(y); {
		y = lt.t[y].parent
		s = append(s, y)
	}
	for i := len(s) - 1; i >= 0; i-- {
		lt.push(s[i])
	}
	lt.stack = s
	for !lt.isRoot(x) {
		y := lt.t[x].parent
		if !lt.isRoot(y) {
			z := lt.t[y].parent
			if (lt.t[y].ch[0] == x) == (lt.t[z].ch[0] == y) {
				lt.rotate(y)
			} else {
				lt.rotate(x)
			}
		}
		lt.rotate(x)
	}
	lt.pull(x)
}

// access makes the root-to-x path preferred and x the root of its splay
// tree, with nothing deeper than x in it.
func (lt *lct) access(x int32) {
	last := int32(0)
	for y := x; y != 0; y = lt.t[y].parent {
		lt.splay(y)
		lt.t[y].ch[1] = last
		lt.pull(y)
		last = y
	}
	lt.splay(x)
}

func (lt *lct) makeRoot(x int32) {
	lt.access(x)
	lt.t[x].flip = !lt.t[x].flip
}

// attach hangs vertex child under vertex parent through a fresh node
// for edge id of weight w. child must be the root of its tree and the
// root of its splay tree: an isolated vertex during the O(n) build from
// BFS parent pointers, or the vertex makeRoot just re-rooted at.
func (lt *lct) attach(child, parent, id int32, w float64) int32 {
	e := lt.free[len(lt.free)-1]
	lt.free = lt.free[:len(lt.free)-1]
	lt.t[e] = lctNode{id: id, maxID: id, w: w, maxW: w, parent: parent + 1}
	lt.t[child+1].parent = e
	return e
}

// link joins the trees of vertices u and v with edge id and returns
// the edge's node.
func (lt *lct) link(u, v, id int32, w float64) int32 {
	lt.makeRoot(u + 1)
	return lt.attach(u, v, id, w)
}

// cut removes edge node e, whose endpoints are vertices u and v, and
// returns the node to the free list.
func (lt *lct) cut(e, u, v int32) {
	lt.makeRoot(e)
	for _, x := range [2]int32{u + 1, v + 1} {
		// With e the tree root and x adjacent to it, the preferred path
		// to x is e, x: e is x's whole left splay subtree.
		lt.access(x)
		lt.t[lt.t[x].ch[0]].parent = 0
		lt.t[x].ch[0] = 0
		lt.pull(x)
	}
	lt.t[e] = lctNode{id: -1, maxID: -1}
	lt.free = append(lt.free, e)
}

// pathMax returns the heaviest (W, id) edge on the tree path between
// vertices u and v, and whether they are in one tree at all.
func (lt *lct) pathMax(u, v int32) (int32, bool) {
	lt.makeRoot(u + 1)
	lt.access(v + 1)
	m := lt.t[v+1].maxID
	// The leftmost node of v's splay tree is its tree's root, which is
	// u iff they are connected; splaying it keeps the walk amortized.
	r := v + 1
	for {
		lt.push(r)
		if lt.t[r].ch[0] == 0 {
			break
		}
		r = lt.t[r].ch[0]
	}
	lt.splay(r)
	return m, r == u+1
}
