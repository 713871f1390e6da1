package par

import (
	"sync"
	"sync/atomic"

	"pmsf/internal/obs"
)

// Team is a persistent SPMD worker group: p goroutines created once and
// reused across many phases, mirroring the paper's SIMPLE runtime (POSIX
// threads living for the whole algorithm, synchronized by barriers). It
// is the only way this module runs a parallel pass.
//
// Usage:
//
//	team := par.NewTeam(p)
//	defer team.Close()
//	team.Run(func(w int) { ... })   // phase 1, all workers
//	team.Run(func(w int) { ... })   // phase 2 ...
//
// Run blocks until every worker has finished the phase (an implicit
// barrier). A phase body must not start another phase on any team it
// runs on: the workers that would serve the inner phase are all parked
// inside the outer one, so nested phases deadlock by construction.
//
// A panic in any worker is captured and re-raised on the caller of Run
// once every worker has finished the phase, so callers see library
// panics as ordinary panics instead of a crashed runtime; the lowest
// worker id wins when several panic. The team stays usable afterwards.
//
// A phase body that is created once and reused (a method value stored at
// setup) makes Run and ForDynamic allocation-free, which is what the
// Borůvka steady-state loops rely on for their zero-allocs-per-round
// contract.
type Team struct {
	p       int
	work    []chan func(int)
	done    chan struct{}
	closing bool
	mu      sync.Mutex

	// panics holds each worker's recovered panic of the current phase;
	// Run re-raises the lowest-id one and clears them all.
	panics []any

	// ForDynamic state: the prebound dynWork wrapper reads these, so a
	// ForDynamic call allocates nothing beyond what its body does.
	dynNext  atomic.Int64
	dynN     int
	dynGrain int
	dynBody  func(worker, lo, hi int)
	dynRun   func(int)
}

// NewTeam starts a team of p persistent workers. p must be >= 1.
func NewTeam(p int) *Team {
	if p < 1 {
		panic("par: team size must be >= 1")
	}
	t := &Team{
		p:      p,
		work:   make([]chan func(int), p),
		done:   make(chan struct{}, p),
		panics: make([]any, p),
	}
	t.dynRun = t.dynWork
	for w := 1; w < p; w++ {
		t.work[w] = make(chan func(int))
		go func(w int) {
			for fn := range t.work[w] {
				t.call(fn, w)
				t.done <- struct{}{}
			}
		}(w)
	}
	return t
}

// P returns the team size.
func (t *Team) P() int { return t.p }

// Run executes body(w) for w in [0, p) — worker 0 on the calling
// goroutine — and waits for all of them, then re-raises the panic of the
// lowest worker id that panicked, if any. Run panics if the team has
// been closed; the workers are gone, so no body could ever execute.
//
//msf:noalloc
func (t *Team) Run(body func(worker int)) {
	t.mu.Lock()
	if t.closing {
		t.mu.Unlock()
		panic("par: Run on closed team")
	}
	t.mu.Unlock()
	obs.ParPhases.Add(1)
	for w := 1; w < t.p; w++ {
		t.work[w] <- body
	}
	t.call(body, 0)
	for w := 1; w < t.p; w++ {
		<-t.done
	}
	for _, r := range t.panics {
		if r != nil {
			clear(t.panics)
			panic(r)
		}
	}
}

// call runs worker w's share of a phase, recording a panic instead of
// letting it unwind the worker.
//
//msf:noalloc
func (t *Team) call(body func(int), w int) {
	defer t.recoverInto(w)
	body(w)
}

// recoverInto is call's deferred handler; recover works only when called
// directly by the deferred function, so this is a method, not a closure.
//
//msf:noalloc
func (t *Team) recoverInto(w int) {
	if r := recover(); r != nil {
		t.panics[w] = r
	}
}

// For runs body over [0, n) split into p contiguous blocks on the team,
// one per worker: body(worker, lo, hi). Workers with an empty block are
// still invoked (with lo == hi).
func (t *Team) For(n int, body func(worker, lo, hi int)) {
	t.Run(func(w int) {
		lo, hi := Block(n, t.p, w)
		body(w, lo, hi)
	})
}

// ForDynamic runs body over [0, n) with the team's workers pulling
// grain-sized chunks from a shared atomic counter, and adds the
// ceil(n/grain) chunks to obs.ParChunks. Use it when per-index cost is
// irregular (per-vertex adjacency lists, skewed duplicate runs). body
// must not call back into the team.
//
//msf:noalloc
func (t *Team) ForDynamic(n, grain int, body func(worker, lo, hi int)) {
	if grain < 1 {
		grain = 1
	}
	t.dynN, t.dynGrain, t.dynBody = n, grain, body
	t.dynNext.Store(0)
	t.Run(t.dynRun)
	t.dynBody = nil
	obs.ParChunks.Add(int64((n + grain - 1) / grain))
}

// dynWork is the persistent per-worker chunk-claim loop behind
// ForDynamic; it is bound once in NewTeam so ForDynamic never creates a
// closure.
//
//msf:noalloc
func (t *Team) dynWork(w int) {
	n, grain := t.dynN, t.dynGrain
	for {
		lo := int(t.dynNext.Add(int64(grain))) - grain
		if lo >= n {
			return
		}
		hi := lo + grain
		if hi > n {
			hi = n
		}
		t.dynBody(w, lo, hi)
	}
}

// Close shuts the workers down. The team must not be used afterwards.
// Close is idempotent.
func (t *Team) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closing {
		return
	}
	t.closing = true
	for w := 1; w < t.p; w++ {
		close(t.work[w])
	}
}
