package serve

import (
	"sync"
	"time"

	"pmsf"
	"pmsf/internal/obs"
)

// QueryKind selects what a job computes.
type QueryKind string

const (
	// KindMSF computes a minimum spanning forest.
	KindMSF QueryKind = "msf"
	// KindComponents computes connected-component labels.
	KindComponents QueryKind = "components"
)

// JobState is the lifecycle of a job. Transitions:
// queued → running → done|failed, or queued → canceled (drain).
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Result is the terminal payload of a successful job — and the unit the
// LRU cache stores. Cached hits are returned verbatim with Cached
// flipped to true.
type Result struct {
	Kind       QueryKind `json:"kind"`
	Algorithm  string    `json:"algorithm,omitempty"`
	Graph      string    `json:"graph"`
	N          int       `json:"n"`
	M          int       `json:"m"`
	Cached     bool      `json:"cached"`
	Weight     float64   `json:"weight,omitempty"`
	ForestSize int       `json:"forest_size,omitempty"`
	Components int       `json:"components"`
	// EdgeIDs is populated only when the query asked for the explicit
	// forest (include_edges) — it is O(n) per response.
	EdgeIDs []int32 `json:"edge_ids,omitempty"`
	// Labels is populated only for components queries that asked for
	// explicit per-vertex labels (include_labels).
	Labels []int32 `json:"labels,omitempty"`
	// WallNS is the engine wall time of the run that produced this
	// result (not of the cached re-query).
	WallNS int64 `json:"wall_ns"`
	// PhaseTotalNS is the per-phase breakdown from the run's span trace.
	PhaseTotalNS map[string]int64 `json:"phase_total_ns,omitempty"`
}

// setForest fills r's forest fields from f, and its edge ids when the
// query asked for them.
func (r *Result) setForest(f *pmsf.Forest, includeEdges bool) {
	r.Weight, r.ForestSize, r.Components = f.Weight, f.Size(), f.Components
	if includeEdges {
		r.EdgeIDs = f.EdgeIDs
	}
}

// Event is one job lifecycle or progress notification, streamed over
// SSE and recorded on the job for replay.
type Event struct {
	Type  string   `json:"type"` // queued, running, progress, done, failed, canceled
	JobID string   `json:"job_id"`
	State JobState `json:"state"`
	// Spans is the number of trace spans completed so far: a cheap,
	// monotonic live progress signal while an engine runs.
	Spans int `json:"spans,omitempty"`
	// Error carries the failure message on failed events.
	Error string `json:"error,omitempty"`
	// ElapsedNS is time since the job was admitted.
	ElapsedNS int64 `json:"elapsed_ns"`
}

// Job is one admitted query moving through the queue. All fields below
// the mutex are guarded by it; the immutable request fields are set
// before the job is visible to any other goroutine.
type Job struct {
	ID string
	// Key is what the job computes, on which graph snapshot, and the
	// cache entry its result fills.
	Key CacheKey

	// lease is held from admission to finish and dropped there, so a
	// finished job kept in the history does not pin its graph snapshot.
	// Only the goroutine that owns the job's terminal transition (the
	// worker that runs it, or the drain that cancels it) touches it.
	lease    *Lease
	trace    *obs.Collector
	enqueued time.Time

	mu     sync.Mutex
	state  JobState
	result *Result
	err    error
	events []Event
	subs   map[chan Event]struct{}
	done   chan struct{}
}

func newJob(id string, key CacheKey, lease *Lease) *Job {
	return &Job{
		ID:       id,
		Key:      key,
		lease:    lease,
		trace:    obs.NewCollector(),
		enqueued: time.Now(),
		state:    StateQueued,
		subs:     make(map[chan Event]struct{}),
		done:     make(chan struct{}),
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Outcome returns the terminal result and error. Valid after Done() is
// closed; before that both are nil.
func (j *Job) Outcome() (*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Status is the JSON shape of GET /v1/jobs/{id}.
type Status struct {
	ID     string    `json:"id"`
	Kind   QueryKind `json:"kind"`
	State  JobState  `json:"state"`
	Graph  string    `json:"graph"`
	Error  string    `json:"error,omitempty"`
	Result *Result   `json:"result,omitempty"`
	// Spans is the live span count (progress while running).
	Spans int `json:"spans"`
}

// Snapshot returns the job's externally visible status.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Status{
		ID:     j.ID,
		Kind:   j.Key.Kind,
		State:  j.state,
		Graph:  j.Key.Name,
		Result: j.result,
		Spans:  len(j.trace.Spans()),
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	return s
}

// publish records ev and fans it out to subscribers without blocking:
// a slow SSE client drops events rather than stalling the worker.
func (j *Job) publish(typ string) {
	j.mu.Lock()
	ev := Event{
		Type:      typ,
		JobID:     j.ID,
		State:     j.state,
		Spans:     len(j.trace.Spans()),
		ElapsedNS: time.Since(j.enqueued).Nanoseconds(),
	}
	if j.err != nil {
		ev.Error = j.err.Error()
	}
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

// Subscribe returns a replay of every event so far plus a live channel
// for the rest. Call the returned cancel exactly once.
func (j *Job) Subscribe() (replay []Event, live <-chan Event, cancel func()) {
	ch := make(chan Event, 64)
	j.mu.Lock()
	replay = append([]Event(nil), j.events...)
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return replay, ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// setRunning transitions queued → running. Returns false if the job was
// already canceled.
func (j *Job) setRunning() bool {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.mu.Unlock()
	j.publish("running")
	return true
}

// finish commits the terminal state, publishes the matching event, and
// releases and drops the graph lease.
func (j *Job) finish(res *Result, err error, canceled bool) {
	j.mu.Lock()
	switch {
	case canceled:
		j.state = StateCanceled
	case err != nil:
		j.state = StateFailed
	default:
		j.state = StateDone
	}
	j.result, j.err = res, err
	typ := string(j.state)
	j.mu.Unlock()
	j.publish(typ)
	close(j.done)
	j.lease.Release()
	j.lease = nil
}
