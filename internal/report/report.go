// Package report renders the span-derived summary of a run (obs.Summary,
// which the public API returns as pmsf.Stats) as human-readable text.
// The CLIs use it; keeping the formatting here makes it testable.
package report

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"pmsf/internal/obs"
)

// Summary writes the roll-up of a traced run: a title line; when the run
// has rounds, a table with one row per round (its args, then its step
// times) and a totals row; the args of the root span and its top-level
// phases; every span name with its count and summed time; then the
// counters, when the summary has any.
func Summary(w io.Writer, s *obs.Summary) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s, p=%d", s.Algorithm, s.Workers)
	if len(s.Rounds) > 0 {
		fmt.Fprintf(&b, ", %d %ss", len(s.Rounds), s.Rounds[0].Name)
	}
	fmt.Fprintf(&b, ", %d spans, wall %v\n", s.SpanCount, round(time.Duration(s.WallNS)))
	if len(s.Rounds) > 0 {
		rounds(&b, s.Rounds)
	}
	for _, key := range sortedKeys(s.Args) {
		fmt.Fprintf(&b, "  %-28s %12d\n", key, s.Args[key])
	}
	for _, name := range sortedKeys(s.PhaseTotalNS) {
		fmt.Fprintf(&b, "  %-20s %6dx %12v\n", name, s.Counts[name], round(time.Duration(s.PhaseTotalNS[name])))
	}
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "  %-28s %12d\n", name, s.Counters[name])
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// rounds writes the per-round table. Its columns are every arg and step
// name any round carries, in the order they first appear.
func rounds(b *strings.Builder, rs []obs.Round) {
	var args, steps []string
	for _, r := range rs {
		args, steps = union(args, r.Args), union(steps, r.StepNS)
	}
	tw := tabwriter.NewWriter(b, 0, 0, 2, ' ', tabwriter.AlignRight)
	header := append(append([]string{rs[0].Name}, args...), steps...)
	fmt.Fprintf(tw, "%s\t\n", strings.Join(header, "\t"))
	total := make([]time.Duration, len(steps))
	for i, r := range rs {
		fmt.Fprintf(tw, "%d\t", i+1)
		for _, key := range args {
			fmt.Fprintf(tw, "%d\t", r.Arg(key))
		}
		for j, name := range steps {
			d := r.Step(name)
			total[j] += d
			fmt.Fprintf(tw, "%v\t", round(d))
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintf(tw, "total\t%s", strings.Repeat("\t", len(args)))
	for _, d := range total {
		fmt.Fprintf(tw, "%v\t", round(d))
	}
	fmt.Fprintln(tw)
	tw.Flush()
}

// union appends to names each key of args it does not hold yet.
func union(names []string, args []obs.Arg) []string {
	for _, a := range args {
		if !slices.Contains(names, a.Key) {
			names = append(names, a.Key)
		}
	}
	return names
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func round(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
