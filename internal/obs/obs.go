// Package obs is the observability layer shared by every MSF algorithm:
// hierarchical wall-clock spans, process-wide counters and gauges behind
// an expvar-compatible registry, pprof label propagation, and exporters
// (Chrome trace-event JSON, machine-readable run summaries).
//
// The package has no dependencies outside the standard library. All
// entry points are nil-safe: a nil *Collector (observability disabled)
// makes every span operation a zero-allocation no-op, so the algorithms
// carry their instrumentation unconditionally and pay nothing when it is
// off.
//
// The span tree is the single source of a run's instrumentation: the
// Summary roll-up (which the public API returns as pmsf.Stats and the
// CLIs print) and the Chrome trace are both views over it, so they
// always agree exactly.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Collector gathers the spans of one run. Create one with NewCollector,
// pass it to the algorithm via its Options, then export with
// WriteChromeTrace or Summarize. A nil Collector is valid everywhere and
// disables collection.
//
// Span starts and ends may happen concurrently from any goroutine.
type Collector struct {
	start  time.Time
	clock  func() time.Duration // elapsed time source (monotonic); tests may stub it
	nextID atomic.Int64

	mu    sync.Mutex
	spans []SpanRecord
}

// NewCollector returns an empty collector whose timestamps are monotonic
// durations since this call.
func NewCollector() *Collector {
	c := &Collector{start: time.Now()}
	c.clock = func() time.Duration { return time.Since(c.start) }
	return c
}

// elapsed returns the monotonic time since the collector was created.
func (c *Collector) elapsed() time.Duration { return c.clock() }

// Arg is one named integer: an attribute attached to a span (iteration
// sizes, level counters, ...), or in a Round a step's duration.
type Arg struct {
	Key   string `json:"key"`
	Value int64  `json:"value"`
}

// lookup returns the value of the named entry and whether it is present.
func lookup(args []Arg, key string) (int64, bool) {
	for _, a := range args {
		if a.Key == key {
			return a.Value, true
		}
	}
	return 0, false
}

// SpanRecord is one completed span. Records are appended when a span
// ends, so children always precede their parent in Spans().
type SpanRecord struct {
	ID     int64 // unique within the collector, starting at 1
	Parent int64 // 0 for root spans
	Name   string
	Cat    string // category, e.g. the algorithm name
	Worker int    // rendered as the Chrome trace "tid"
	Start  time.Duration
	Dur    time.Duration
	Args   []Arg
}

// End returns the span's end timestamp.
func (r SpanRecord) End() time.Duration { return r.Start + r.Dur }

// Arg returns the value of the named argument and whether it is present.
func (r SpanRecord) Arg(key string) (int64, bool) { return lookup(r.Args, key) }

// Spans returns a snapshot of every completed span, in end order.
func (c *Collector) Spans() []SpanRecord {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SpanRecord, len(c.spans))
	copy(out, c.spans)
	return out
}

// Span is a live, not-yet-ended span. The zero Span (and any span
// started on a nil Collector) is inert: every method is a no-op, so
// callers never branch on whether observability is enabled.
type Span struct {
	c      *Collector
	id     int64
	parent int64
	name   string
	cat    string
	worker int
	start  time.Duration
	args   []Arg
	ended  bool
}

// Start opens a root span. cat is the Chrome trace category (the
// algorithm name, by convention). Returns an inert span when c is nil.
func (c *Collector) Start(name, cat string) Span {
	if c == nil {
		return Span{}
	}
	return Span{
		c:     c,
		id:    c.nextID.Add(1),
		name:  name,
		cat:   cat,
		start: c.elapsed(),
	}
}

// Child opens a sub-span inheriting the category and worker id.
func (s *Span) Child(name string) Span {
	if s.c == nil {
		return Span{}
	}
	return Span{
		c:      s.c,
		id:     s.c.nextID.Add(1),
		parent: s.id,
		name:   name,
		cat:    s.cat,
		worker: s.worker,
		start:  s.c.elapsed(),
	}
}

// SetWorker tags the span with a worker id (the Chrome trace "tid").
func (s *Span) SetWorker(w int) *Span {
	if s.c != nil {
		s.worker = w
	}
	return s
}

// SetInt attaches an integer argument to the span. The last value wins
// when a key is set twice.
func (s *Span) SetInt(key string, v int64) *Span {
	if s.c == nil {
		return s
	}
	for i := range s.args {
		if s.args[i].Key == key {
			s.args[i].Value = v
			return s
		}
	}
	s.args = append(s.args, Arg{Key: key, Value: v})
	return s
}

// End closes the span and commits its record to the collector. Ending a
// span twice, or an inert span, is a no-op.
func (s *Span) End() {
	if s.c == nil || s.ended {
		return
	}
	s.ended = true
	rec := SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Cat:    s.cat,
		Worker: s.worker,
		Start:  s.start,
		Dur:    s.c.elapsed() - s.start,
		Args:   s.args,
	}
	s.c.mu.Lock()
	s.c.spans = append(s.c.spans, rec)
	s.c.mu.Unlock()
}
