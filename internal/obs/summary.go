package obs

import (
	"encoding/json"
	"io"
	"time"
)

// Summary is the roll-up of one run's span tree: what `pmsf.Stats`
// returns, what `msf -stats` and `msf-bench -algo` print, and what the
// benchmark harness stores. Every field is read straight off the spans,
// so the summary and the Chrome trace of one run always agree.
type Summary struct {
	// Algorithm and Workers are taken from the root span (the first root
	// span to end): its name and its "workers" argument.
	Algorithm string `json:"algorithm,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	// WallNS is the end timestamp of the last-ending span: the traced
	// wall clock of the run.
	WallNS int64 `json:"wall_ns"`
	// SpanCount is the number of completed spans.
	SpanCount int `json:"span_count"`
	// PhaseTotalNS sums span durations by span name.
	PhaseTotalNS map[string]int64 `json:"phase_total_ns"`
	// Counts is the number of spans per name: Borůvka iterations, MST-BC
	// levels, Bor-CAS filter and sort steps.
	Counts map[string]int `json:"counts"`
	// Args holds the integer args of the root span and of its direct
	// children other than rounds, keyed "span.arg" ("hook.buckets",
	// "finish.n", ...). The last value wins when a name repeats.
	Args map[string]int64 `json:"args,omitempty"`
	// Rounds has one entry per "iteration" or "level" child of the root
	// span, in end order.
	Rounds []Round `json:"rounds,omitempty"`
	// Counters is a snapshot of a metrics registry, when one was given.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Round is one iteration or level of a run: the round span's args, and
// the durations of its child spans summed by name (nanoseconds), both in
// the order they were first set or ended.
type Round struct {
	Name   string `json:"name"`
	Args   []Arg  `json:"args,omitempty"`
	StepNS []Arg  `json:"step_ns,omitempty"`
}

// Arg returns the round's named argument, 0 when absent.
func (r Round) Arg(key string) int64 {
	v, _ := lookup(r.Args, key)
	return v
}

// Step returns the summed duration of the round's child spans with the
// given name.
func (r Round) Step(name string) time.Duration {
	v, _ := lookup(r.StepNS, name)
	return time.Duration(v)
}

// isRound reports whether a child of the root span is a round.
func isRound(name string) bool { return name == "iteration" || name == "level" }

// Summarize rolls up the collected spans, plus a snapshot of reg when
// non-nil (pass Default() for the process-wide kernel counters).
func (c *Collector) Summarize(reg *Registry) *Summary {
	s := &Summary{PhaseTotalNS: make(map[string]int64), Counts: make(map[string]int)}
	spans := c.Spans()
	root := int64(0)
	for _, r := range spans {
		s.SpanCount++
		s.Counts[r.Name]++
		s.PhaseTotalNS[r.Name] += r.Dur.Nanoseconds()
		if end := r.End().Nanoseconds(); end > s.WallNS {
			s.WallNS = end
		}
		if r.Parent == 0 && root == 0 {
			root = r.ID
			s.Algorithm = r.Name
			if w, ok := r.Arg("workers"); ok {
				s.Workers = int(w)
			}
		}
	}
	rounds := make(map[int64]int)
	for _, r := range spans {
		if r.Parent == root && isRound(r.Name) {
			rounds[r.ID] = len(s.Rounds)
			s.Rounds = append(s.Rounds, Round{Name: r.Name, Args: r.Args})
		} else if r.ID == root || r.Parent == root {
			s.addArgs(r)
		}
	}
	// A round ends after its steps, so they are summed in a pass of their
	// own.
	for _, r := range spans {
		if i, ok := rounds[r.Parent]; ok {
			s.Rounds[i].StepNS = addTo(s.Rounds[i].StepNS, r.Name, r.Dur.Nanoseconds())
		}
	}
	if reg != nil {
		s.Counters = reg.Snapshot()
	}
	return s
}

// addArgs records r's args under "name.key".
func (s *Summary) addArgs(r SpanRecord) {
	for _, a := range r.Args {
		if s.Args == nil {
			s.Args = make(map[string]int64)
		}
		s.Args[r.Name+"."+a.Key] = a.Value
	}
}

// addTo adds v to the entry named key, appending it when absent.
func addTo(args []Arg, key string, v int64) []Arg {
	for i := range args {
		if args[i].Key == key {
			args[i].Value += v
			return args
		}
	}
	return append(args, Arg{Key: key, Value: v})
}

// PhaseTotal returns the summed duration of every span with the given
// name.
func (s *Summary) PhaseTotal(name string) time.Duration {
	return time.Duration(s.PhaseTotalNS[name])
}

// WriteJSON writes the summary as indented JSON.
func (s *Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

func durationFromNS(ns int64) time.Duration { return time.Duration(ns) }

func durationFromUS(us float64) time.Duration {
	return time.Duration(us * float64(time.Microsecond))
}
