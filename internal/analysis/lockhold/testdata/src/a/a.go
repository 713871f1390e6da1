// Package a is the lockhold fixture: blocking ops inside critical
// sections must be flagged; non-blocking patterns (select with default,
// unlock-before-block, goroutine bodies) must stay silent.
package a

import (
	"sync"

	"pmsf/internal/par"
)

type box struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	ch   chan int
	subs map[chan int]struct{}
}

// sendWhileLocked is the basic true positive.
func (b *box) sendWhileLocked(v int) {
	b.mu.Lock()
	b.ch <- v // want "channel send while b.mu is held"
	b.mu.Unlock()
}

// recvUnderDefer: defer Unlock holds the lock to function exit, so the
// receive still blocks inside the critical section.
func (b *box) recvUnderDefer() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return <-b.ch // want "channel receive while b.mu is held"
}

// selectNoDefault blocks until a case fires.
func (b *box) selectNoDefault() {
	b.rw.Lock()
	select { // want "select with no default case while b.rw is held"
	case v := <-b.ch:
		_ = v
	}
	b.rw.Unlock()
}

// publish is the serve idiom: select WITH default never blocks — the
// sends are comm cases of a non-blocking dispatch. Must stay silent.
func (b *box) publish(v int) {
	b.mu.Lock()
	for ch := range b.subs {
		select {
		case ch <- v:
		default:
		}
	}
	b.mu.Unlock()
}

// unlockFirst releases before blocking. Must stay silent.
func (b *box) unlockFirst(v int) {
	b.mu.Lock()
	b.subs[b.ch] = struct{}{}
	b.mu.Unlock()
	b.ch <- v
}

// branchRelease unlocks on every path before the blocking op, including
// an early return; the path-sensitive fact must not leak across.
func (b *box) branchRelease(ok bool, v int) {
	b.mu.Lock()
	if !ok {
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	b.ch <- v
}

// oneArmStillLocked releases on only one branch: the send after the
// merge blocks while the lock may still be held.
func (b *box) oneArmStillLocked(ok bool, v int) {
	b.mu.Lock()
	if ok {
		b.mu.Unlock()
	}
	b.ch <- v // want "channel send while b.mu is held"
	if !ok {
		b.mu.Unlock()
	}
}

// phaseUnderLock dispatches a Team phase inside a critical section: the
// workers can outlive the section and a worker that needs the lock
// deadlocks.
func (b *box) phaseUnderLock(t *par.Team, body func(int)) {
	b.mu.Lock()
	t.Run(body) // want "Team.Run phase dispatch while b.mu is held"
	b.mu.Unlock()
	b.mu.Lock()
	_ = t.PackIndices(8, func(int) bool { return true }) // want "Team.PackIndices phase dispatch while b.mu is held"
	b.mu.Unlock()
}

// goroutineBody: the launched goroutine has its own empty lock set; its
// send does not block the locker. Must stay silent.
func (b *box) goroutineBody(v int) {
	b.mu.Lock()
	go func() {
		b.ch <- v
	}()
	b.mu.Unlock()
}

// rangeChanLocked iterates a channel while holding the lock.
func (b *box) rangeChanLocked() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for v := range b.ch { // want "range over a channel while b.mu is held"
		_ = v
	}
}

// twoLocks reports every held lock in the message.
func (b *box) twoLocks(v int) {
	b.mu.Lock()
	b.rw.RLock()
	b.ch <- v // want "channel send while b.mu, b.rw is held"
	b.rw.RUnlock()
	b.mu.Unlock()
}
