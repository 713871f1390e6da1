// Package brokenv2 deliberately violates one invariant per msf-lint
// analyzer with miniatures of the real engine and daemon code — a
// writemin-shaped race slot decoded raw, a plain read of an
// atomically-accessed color array, an allocating round loop, a span
// left open on a skipped iteration, a team used after a conditional
// Close, a slab slice kept past Reset, a serve-shaped queue that blocks
// under its mutex and leaks its worker goroutine, a handler that
// double-writes, and an error overwritten unchecked. The smoke test
// asserts each analyzer fires here, proving the CI gate would catch the
// same regression in the engines or internal/serve.
package brokenv2

import (
	"net/http"
	"sync"
	"sync/atomic"

	"pmsf/internal/arena"
	"pmsf/internal/obs"
	"pmsf/internal/par"
)

// --- atomicslice: a plain read of a slice marked atomic.

func plainRead(n int) int64 {
	color := make([]int64, n) // accessed atomically
	atomic.StoreInt64(&color[0], 1)
	return color[0] // atomicslice: races with the atomic stores
}

// --- noalloc: a round loop that allocates.

//msf:noalloc
func round(n int) []int {
	return make([]int, n) // noalloc: allocation inside the round loop
}

// --- spanpairing: a per-item span left open on the continue path.

func items(c *obs.Collector, xs []int) {
	for _, x := range xs {
		sp := c.Start("item", "algo") // spanpairing: skipped End on continue
		if x < 0 {
			continue
		}
		sp.End()
	}
}

// --- teamlifecycle: a phase dispatched after a conditional Close.

func phases(p int, early bool) {
	t := par.NewTeam(p)
	if early {
		t.Close()
	}
	t.Run(func(int) {}) // teamlifecycle: the workers may be gone
	t.Close()
}

// --- arenaescape: a slab slice cached past the slab's Reset.

type cache struct{ kept []int32 }

func keep(s *arena.Slab[int32], c *cache) {
	c.kept = s.Alloc(16) // arenaescape: outlives Reset
}

// --- atomicpack: writemin-shaped race slots with a raw decode.

type races struct {
	//msf:packed
	best []atomic.Uint64
	lens []int
}

//msf:packer
func raceKey(rank uint32, idx int) uint64 {
	return uint64(rank)<<32 | uint64(uint32(idx))
}

func (r *races) race(v int, rank uint32, idx int) {
	r.best[v].Store(raceKey(rank, idx))
}

func (r *races) winner(v int) int {
	b := r.best[v].Load()
	return r.lens[uint32(b)] // atomicpack: truncation outside the unpacker
}

// --- lockhold: a queue that publishes while holding its mutex.

type queue struct {
	mu   sync.Mutex
	jobs chan int
}

func (q *queue) submit(j int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.jobs <- j // lockhold: blocking send inside the critical section
}

// --- ctxdone: worker goroutine with no shutdown escape.

func (q *queue) start() {
	go func() {
		for { // ctxdone: loops forever, no quit channel
			j := <-q.jobs
			_ = j
		}
	}()
}

// --- onceresp: handler missing the return after its error write.

//msf:respwrite
func writeErr(w http.ResponseWriter, status int) {
	w.WriteHeader(status)
}

func (q *queue) handle(w http.ResponseWriter, r *http.Request) {
	if len(q.jobs) == 0 {
		writeErr(w, http.StatusNotFound)
	}
	writeErr(w, http.StatusOK) // onceresp: second status on the empty path
}

// --- errflow: error overwritten before any check.

func step() error { return nil }

func run() error {
	err := step()
	err = step() // errflow: first failure dropped unread
	return err
}
