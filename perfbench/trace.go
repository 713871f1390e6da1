package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"pmsf"
)

// recorder keeps the benchmark's own spans — one around every call it
// makes into a layer — in memory until the run ends. Spans of one
// operation share an op id. A nil recorder records nothing, which is
// how untraced runs time their calls.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	ops   int64
	spans []benchSpan
}

type benchSpan struct {
	Op      int64  `json:"op"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// op allocates the id shared by the spans of one operation.
func (r *recorder) op() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// span times f and, on a live recorder, records it as one span.
func (r *recorder) span(op int64, layer, name string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	if r != nil {
		r.mu.Lock()
		r.spans = append(r.spans, benchSpan{Op: op, Layer: layer, Name: name,
			StartNS: start.Sub(r.t0).Nanoseconds(), DurNS: d.Nanoseconds()})
		r.mu.Unlock()
	}
	return d
}

// write dumps the spans as JSON.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"spans": r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// phaseView summarises the spans a library run recorded through
// Options.Trace: self time (duration minus the part of it covered by
// child spans), total duration and occurrence count per span name.
type phaseView struct {
	self  map[string]time.Duration
	total map[string]time.Duration
	count map[string]int
}

func viewOf(tr *pmsf.Trace) phaseView {
	v := phaseView{self: map[string]time.Duration{}, total: map[string]time.Duration{}, count: map[string]int{}}
	spans := tr.Spans()
	type iv struct{ lo, hi time.Duration }
	kids := map[int64][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End()})
		}
	}
	for _, s := range spans {
		v.count[s.Name]++
		v.total[s.Name] += s.Dur
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		covered, end := time.Duration(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.lo, end), min(c.hi, s.End())
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		v.self[s.Name] += s.Dur - covered
	}
	return v
}

func (v phaseView) ms(name string) float64 { return ms(v.self[name]) }
