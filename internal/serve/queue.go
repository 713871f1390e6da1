package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pmsf/internal/par"
)

// Admission errors, matched by the handlers to pick status codes.
var (
	// ErrQueueFull means the backlog is at capacity: the client should
	// back off and retry (429 + Retry-After).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining means the server is shutting down: new work is
	// refused permanently (503).
	ErrDraining = errors.New("serve: server is draining")
	// ErrJobNotFound is an unknown job id (404).
	ErrJobNotFound = errors.New("serve: job not found")
)

// Queue is the bounded-concurrency job scheduler: K persistent workers
// (one par.Team created at startup and reused for every job — never a
// per-request team) pull admitted jobs from a bounded channel, so at
// most K engine runs execute at once while up to `depth` jobs wait.
//
// The team is used as a long-lived SPMD pool: Start launches one
// team phase whose body is the worker loop; the phase (and the team)
// ends only when the job channel closes during shutdown.
type Queue struct {
	team     *par.Team
	jobs     chan *Job
	exec     func(*Job) (*Result, error)
	metrics  *Metrics
	workerFn func(int)

	running atomic.Int64
	peak    atomic.Int64
	queued  atomic.Int64
	nextID  atomic.Int64

	mu         sync.Mutex
	byID       map[string]*Job
	order      []string // admission order, for history eviction
	draining   bool
	stopped    chan struct{}
	historyCap int

	// progressEvery is the live-progress event period while a job runs.
	progressEvery time.Duration
}

// NewQueue builds a queue with k workers and a backlog of depth jobs
// (at least one: Submit admits a job only into a free backlog slot).
// exec performs one job (engine run + cache fill) and is called from
// the team's workers.
func NewQueue(k, depth int, m *Metrics, exec func(*Job) (*Result, error)) *Queue {
	if k < 1 {
		k = 1
	}
	if depth < 1 {
		depth = 1
	}
	q := &Queue{
		team:          par.NewTeam(k),
		jobs:          make(chan *Job, depth),
		exec:          exec,
		metrics:       m,
		byID:          make(map[string]*Job),
		stopped:       make(chan struct{}),
		historyCap:    256,
		progressEvery: 100 * time.Millisecond,
	}
	q.workerFn = q.worker
	return q
}

// Start launches the worker pool. The team phase runs until Shutdown
// closes the job channel; the team is closed (workers torn down) right
// after, on the same goroutine that ran the phase.
func (q *Queue) Start() {
	go func() {
		q.team.Run(q.workerFn)
		q.team.Close()
		close(q.stopped)
	}()
}

// worker is the persistent per-worker loop: claim a job, run it,
// repeat until the channel closes.
func (q *Queue) worker(w int) {
	for j := range q.jobs {
		q.runJob(j, w)
	}
}

// NewJob allocates a registered job in the queued state, holding lease.
// The job is not admitted until Submit.
func (q *Queue) NewJob(kind QueryKind, lease *Lease) *Job {
	id := fmt.Sprintf("job-%d", q.nextID.Add(1))
	return newJob(id, kind, lease)
}

// Submit admits j into the backlog. On refusal (draining or full) the
// caller keeps ownership of the job and must release its lease, and the
// job publishes nothing.
//
// An admitted job publishes "queued" and counts in the queued gauge
// before it reaches the workers, so no worker can report it running
// first. Every send happens under q.mu, so a free slot seen there stays
// free until the send.
func (q *Queue) Submit(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		q.metrics.JobsRejected.Add(1)
		return ErrDraining
	}
	if len(q.jobs) == cap(q.jobs) {
		q.metrics.JobsRejected.Add(1)
		return ErrQueueFull
	}
	q.byID[j.ID] = j
	q.order = append(q.order, j.ID)
	q.evictHistoryLocked()
	q.metrics.JobsSubmitted.Add(1)
	q.metrics.JobsQueued.Set(q.queued.Add(1))
	j.publish("queued")
	q.jobs <- j //msf:ignore lockhold cannot block: the slot was checked free above and every send holds q.mu
	return nil
}

// Get returns the job with the given id.
func (q *Queue) Get(id string) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrJobNotFound, id)
	}
	return j, nil
}

// runJob executes one claimed job on team worker w, maintaining the
// running/peak accounting the concurrency-bound assertion reads.
func (q *Queue) runJob(j *Job, _ int) {
	q.metrics.JobsQueued.Set(q.queued.Add(-1))
	if !j.setRunning() {
		return // canceled while queued; finish already ran
	}
	cur := q.running.Add(1)
	for {
		p := q.peak.Load()
		if cur <= p || q.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	q.metrics.JobsRunning.Set(cur)
	q.metrics.JobsRunningPeak.Set(q.peak.Load())

	// Live progress: span-count events while the engine runs.
	stop := make(chan struct{})
	var tick sync.WaitGroup
	if q.progressEvery > 0 {
		tick.Add(1)
		go func() {
			defer tick.Done()
			t := time.NewTicker(q.progressEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					j.publish("progress")
				}
			}
		}()
	}

	res, err := q.exec(j)
	close(stop)
	tick.Wait()

	q.metrics.JobsRunning.Set(q.running.Add(-1))
	if err != nil {
		q.metrics.JobsFailed.Add(1)
	} else {
		q.metrics.JobsCompleted.Add(1)
	}
	j.finish(res, err, false)
}

// RunningPeak returns the high-water mark of concurrently executing
// engine runs (the K-bound assertion).
func (q *Queue) RunningPeak() int64 { return q.peak.Load() }

// Depth returns the current backlog length.
func (q *Queue) Depth() int { return len(q.jobs) }

// Workers returns the pool size K.
func (q *Queue) Workers() int { return q.team.P() }

// Draining reports whether admission has stopped.
func (q *Queue) Draining() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.draining
}

// Shutdown stops admission, cancels every job still queued, and waits
// for in-flight runs to finish — up to ctx's deadline, after which it
// returns ctx.Err() with the workers still draining in the background.
// Idempotent: later calls just wait again.
func (q *Queue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	first := !q.draining
	q.draining = true
	if first {
		// Cancel the backlog. Workers race us for these jobs; whoever
		// receives a given job owns its terminal transition, so a job
		// claimed by a worker just runs to completion.
		for {
			select {
			case j := <-q.jobs:
				q.metrics.JobsQueued.Set(q.queued.Add(-1))
				q.metrics.JobsCanceled.Add(1)
				j.finish(nil, ErrDraining, true)
			default:
				close(q.jobs)
				q.mu.Unlock()
				goto wait
			}
		}
	}
	q.mu.Unlock()
wait:
	select {
	case <-q.stopped:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// evictHistoryLocked bounds the job map: oldest terminal jobs beyond
// historyCap are forgotten. Caller holds q.mu.
func (q *Queue) evictHistoryLocked() {
	for len(q.order) > q.historyCap {
		evicted := false
		for i, id := range q.order {
			j := q.byID[id]
			if j == nil {
				q.order = append(q.order[:i], q.order[i+1:]...)
				evicted = true
				break
			}
			select {
			case <-j.Done():
				delete(q.byID, id)
				q.order = append(q.order[:i], q.order[i+1:]...)
				evicted = true
			default:
				continue
			}
			break
		}
		if !evicted {
			return // everything live; let the map grow past the cap
		}
	}
}
