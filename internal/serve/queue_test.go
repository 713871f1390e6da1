package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// queueFixture builds a queue with k workers, depth backlog, and a
// gated exec: jobs block until release is closed.
type queueFixture struct {
	q       *Queue
	m       *Metrics
	reg     *Registry
	started chan string // job IDs as they begin executing
	release chan struct{}
	mu      sync.Mutex
	ran     []string
}

func newQueueFixture(t *testing.T, k, depth int) *queueFixture {
	t.Helper()
	f := &queueFixture{
		m:       NewMetrics(),
		started: make(chan string, 64),
		release: make(chan struct{}),
	}
	f.reg = NewRegistry(0, f.m)
	if _, err := f.reg.Register("g", testGraph(20, 40, 1)); err != nil {
		t.Fatal(err)
	}
	f.q = NewQueue(k, depth, f.m, func(j *Job) (*Result, error) {
		f.started <- j.ID
		<-f.release
		f.mu.Lock()
		f.ran = append(f.ran, j.ID)
		f.mu.Unlock()
		return &Result{Kind: j.Kind, Graph: j.lease.Name}, nil
	})
	f.q.progressEvery = 0 // deterministic event streams in unit tests
	f.q.Start()
	return f
}

func (f *queueFixture) job(t *testing.T) *Job {
	t.Helper()
	lease, err := f.reg.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	return f.q.NewJob(KindMSF, lease)
}

func TestQueueRunsAndCompletes(t *testing.T) {
	f := newQueueFixture(t, 2, 4)
	j := f.job(t)
	if err := f.q.Submit(j); err != nil {
		t.Fatal(err)
	}
	<-f.started
	close(f.release)
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job never finished")
	}
	res, err := j.Outcome()
	if err != nil || res == nil || res.Graph != "g" {
		t.Fatalf("outcome = %+v, %v", res, err)
	}
	if j.State() != StateDone {
		t.Errorf("state = %v, want done", j.State())
	}
	if got, _ := f.q.Get(j.ID); got != j {
		t.Error("Get did not return the job")
	}
	if f.m.JobsCompleted.Value() != 1 {
		t.Errorf("completed = %d, want 1", f.m.JobsCompleted.Value())
	}
}

// TestQueueBoundedAdmission: with K=1 and depth=1, the third submit
// (one running + one queued) must be refused with ErrQueueFull.
func TestQueueBoundedAdmission(t *testing.T) {
	f := newQueueFixture(t, 1, 1)
	defer close(f.release)

	j1, j2, j3 := f.job(t), f.job(t), f.job(t)
	if err := f.q.Submit(j1); err != nil {
		t.Fatal(err)
	}
	<-f.started // j1 occupies the single worker
	if err := f.q.Submit(j2); err != nil {
		t.Fatal(err)
	}
	if err := f.q.Submit(j3); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	if f.m.JobsRejected.Value() != 1 {
		t.Errorf("rejected = %d, want 1", f.m.JobsRejected.Value())
	}
}

// TestQueueGaugeNeverNegative: an admitted job counts in the queued
// gauge and publishes "queued" before any worker can claim it, so the
// gauge never dips below zero and no job reports running first, however
// fast the single worker is.
func TestQueueGaugeNeverNegative(t *testing.T) {
	f := newQueueFixture(t, 1, 4)
	var low atomic.Int64
	f.q.exec = func(j *Job) (*Result, error) {
		if v := f.m.JobsQueued.Value(); v < low.Load() {
			low.Store(v) // only the one worker writes low
		}
		return &Result{}, nil
	}
	var jobs []*Job
	for len(jobs) < 2000 {
		j := f.job(t)
		for {
			err := f.q.Submit(j)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				t.Fatal(err)
			}
			runtime.Gosched()
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		<-j.Done()
		replay, _, cancel := j.Subscribe()
		cancel()
		if len(replay) == 0 || replay[0].Type != "queued" {
			t.Fatalf("%s: first event %+v, want queued", j.ID, replay)
		}
	}
	if low.Load() < 0 {
		t.Fatalf("queued gauge read %d", low.Load())
	}
}

// TestQueueShutdownCancelsQueuedDrainsRunning is the drain contract:
// the running job finishes and returns its result, the queued job is
// canceled, and new submits are refused.
func TestQueueShutdownCancelsQueuedDrainsRunning(t *testing.T) {
	f := newQueueFixture(t, 1, 4)

	running, queued := f.job(t), f.job(t)
	if err := f.q.Submit(running); err != nil {
		t.Fatal(err)
	}
	<-f.started
	if err := f.q.Submit(queued); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		done <- f.q.Shutdown(context.Background())
	}()

	// The queued job must be canceled promptly, before drain completes.
	select {
	case <-queued.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("queued job not canceled by shutdown")
	}
	if queued.State() != StateCanceled {
		t.Errorf("queued job state = %v, want canceled", queued.State())
	}

	// New admissions are refused while draining.
	late := f.job(t)
	if err := f.q.Submit(late); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
	late.lease.Release()

	// The in-flight job still completes with its result.
	close(f.release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown never returned")
	}
	if running.State() != StateDone {
		t.Errorf("running job state = %v, want done", running.State())
	}
	if res, err := running.Outcome(); err != nil || res == nil {
		t.Errorf("running job outcome = %+v, %v", res, err)
	}
	if f.m.JobsCanceled.Value() != 1 {
		t.Errorf("canceled = %d, want 1", f.m.JobsCanceled.Value())
	}

	// Shutdown is idempotent.
	if err := f.q.Shutdown(context.Background()); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// TestQueueShutdownDeadline: a hung in-flight job makes Shutdown return
// the context error instead of blocking forever.
func TestQueueShutdownDeadline(t *testing.T) {
	f := newQueueFixture(t, 1, 1)
	defer close(f.release)
	j := f.job(t)
	if err := f.q.Submit(j); err != nil {
		t.Fatal(err)
	}
	<-f.started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := f.q.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown with hung job: %v, want DeadlineExceeded", err)
	}
}

// TestQueueReleasesLeases: jobs must release their graph leases in
// every terminal state, so DELETE frees the graph afterwards.
func TestQueueReleasesLeases(t *testing.T) {
	f := newQueueFixture(t, 1, 4)
	j := f.job(t)
	if err := f.q.Submit(j); err != nil {
		t.Fatal(err)
	}
	<-f.started
	close(f.release)
	<-j.Done()
	if info, err := f.reg.Get("g"); err != nil || info.Refs != 0 {
		t.Errorf("refs after job done = %+v, %v; want 0", info, err)
	}
}

func TestJobEventsReplayAndLive(t *testing.T) {
	f := newQueueFixture(t, 1, 4)
	j := f.job(t)
	if err := f.q.Submit(j); err != nil {
		t.Fatal(err)
	}
	<-f.started

	replay, live, cancel := j.Subscribe()
	defer cancel()
	// queued and running already happened.
	if len(replay) < 2 || replay[0].Type != "queued" || replay[1].Type != "running" {
		t.Fatalf("replay = %+v, want queued then running", replay)
	}
	close(f.release)
	select {
	case ev := <-live:
		if ev.Type != "done" || ev.State != StateDone {
			t.Errorf("live event = %+v, want done", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no terminal event delivered")
	}
}
