package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// stubClock replaces the collector's monotonic clock with one that
// advances exactly 1ms per reading, making every timestamp and duration
// deterministic.
func stubClock(c *Collector) {
	var ticks time.Duration
	c.clock = func() time.Duration {
		ticks += time.Millisecond
		return ticks
	}
}

func TestSpanNestingInvariants(t *testing.T) {
	c := NewCollector()
	stubClock(c)

	root := c.Start("run", "algo")
	root.SetInt("workers", 4)
	itA := root.Child("iteration")
	stepA := itA.Child("find-min")
	stepA.End()
	itA.End()
	itB := root.Child("iteration")
	itB.End()
	root.End()

	spans := c.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byID := make(map[int64]SpanRecord, len(spans))
	seenAt := make(map[int64]int, len(spans))
	for i, r := range spans {
		if _, dup := byID[r.ID]; dup {
			t.Fatalf("duplicate span id %d", r.ID)
		}
		byID[r.ID] = r
		seenAt[r.ID] = i
	}
	for _, r := range spans {
		if r.Parent == 0 {
			continue
		}
		p, ok := byID[r.Parent]
		if !ok {
			t.Fatalf("span %d has unknown parent %d", r.ID, r.Parent)
		}
		if r.Start < p.Start {
			t.Errorf("span %d starts before its parent", r.ID)
		}
		if r.End() > p.End() {
			t.Errorf("span %d ends after its parent", r.ID)
		}
		if seenAt[r.ID] > seenAt[r.Parent] {
			t.Errorf("span %d recorded after its parent (End order violated)", r.ID)
		}
		if r.Cat != p.Cat {
			t.Errorf("span %d did not inherit category", r.ID)
		}
	}
	// The root carries its argument.
	rootRec := spans[len(spans)-1]
	if rootRec.Name != "run" {
		t.Fatalf("last-ended span is %q, want the root", rootRec.Name)
	}
	if v, ok := rootRec.Arg("workers"); !ok || v != 4 {
		t.Fatalf("root workers arg = %d,%v", v, ok)
	}
}

func TestSpanEndIdempotentAndInert(t *testing.T) {
	c := NewCollector()
	s := c.Start("x", "y")
	s.End()
	s.End()
	if n := len(c.Spans()); n != 1 {
		t.Fatalf("double End recorded %d spans", n)
	}

	var nilC *Collector
	inert := nilC.Start("a", "b")
	if inert.Live() {
		t.Fatal("span on nil collector is live")
	}
	ch := inert.Child("c")
	ch.SetInt("k", 1)
	ch.End()
	inert.End()
	if nilC.Spans() != nil {
		t.Fatal("nil collector has spans")
	}
}

func TestStartUnder(t *testing.T) {
	c := NewCollector()
	parent := c.Start("parent", "cat")
	child := StartUnder(nil, parent, "child", "childcat")
	if child.Collector() != c {
		t.Fatal("StartUnder did not adopt the parent's collector")
	}
	child.End()
	parent.End()
	spans := c.Spans()
	if spans[0].Parent != spans[1].ID {
		t.Fatal("StartUnder child not nested under parent")
	}
	if spans[0].Cat != "childcat" {
		t.Fatalf("StartUnder kept category %q, want override", spans[0].Cat)
	}

	root := StartUnder(c, Span{}, "root", "cat")
	root.End()
	if got := c.Spans()[2]; got.Parent != 0 {
		t.Fatal("StartUnder with inert parent is not a root span")
	}
}

func TestDisabledObservabilityAllocatesNothing(t *testing.T) {
	var c *Collector
	allocs := testing.AllocsPerRun(200, func() {
		root := c.Start("algo", "algo")
		root.SetInt("workers", 8)
		it := root.Child("iteration")
		it.SetInt("n", 100)
		step := it.Child("find-min")
		step.SetWorker(3)
		step.End()
		it.End()
		root.End()
		c.Labeled("algo", "phase", func() {})
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v times per run, want 0", allocs)
	}
}

func TestCounterMonotonicUnderConcurrency(t *testing.T) {
	reg := NewRegistry()
	ctr := reg.Counter("c")
	const workers = 8
	const each = 10_000
	stop := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		last := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := ctr.Value()
			if v < last {
				t.Errorf("counter went backwards: %d -> %d", last, v)
				return
			}
			last = v
		}
	}()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ctr.Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	watcher.Wait()
	if got := ctr.Value(); got != workers*each {
		t.Fatalf("counter = %d, want %d", got, workers*each)
	}
	ctr.Add(-5)
	if got := ctr.Value(); got != workers*each {
		t.Fatalf("negative Add changed the counter: %d", got)
	}
}

func TestRegistryKindsAndSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("edges").Add(3)
	reg.Gauge("sv").Set(17)
	if reg.Counter("edges") != reg.Counter("edges") {
		t.Fatal("Counter not idempotent")
	}
	snap := reg.Snapshot()
	if snap["edges"] != 3 || snap["sv"] != 17 {
		t.Fatalf("snapshot = %v", snap)
	}
	reg.Reset()
	snap = reg.Snapshot()
	if snap["edges"] != 0 || snap["sv"] != 0 {
		t.Fatalf("post-reset snapshot = %v", snap)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	reg.Gauge("edges")
}

func TestGoldenChromeTrace(t *testing.T) {
	c := NewCollector()
	stubClock(c)
	root := c.Start("Bor-FAL", "Bor-FAL")
	root.SetInt("workers", 2)
	it := root.Child("iteration")
	it.SetInt("n", 1000)
	it.SetInt("list_size", 6000)
	fm := it.Child("find-min")
	fm.SetWorker(1)
	fm.End()
	it.End()
	root.End()

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_trace.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace JSON drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}

	// The trace must decode back to the recorded spans.
	recs, err := ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	orig := c.Spans()
	if len(recs) != len(orig) {
		t.Fatalf("decoded %d spans, want %d", len(recs), len(orig))
	}
	byID := make(map[int64]SpanRecord, len(orig))
	for _, r := range orig {
		byID[r.ID] = r
	}
	for _, r := range recs {
		o, ok := byID[r.ID]
		if !ok {
			t.Fatalf("decoded unknown span id %d", r.ID)
		}
		if r.Name != o.Name || r.Cat != o.Cat || r.Parent != o.Parent ||
			r.Worker != o.Worker || r.Dur != o.Dur {
			t.Errorf("span %d decoded as %+v, want %+v", r.ID, r, o)
		}
		for _, a := range o.Args {
			if v, ok := r.Arg(a.Key); !ok || v != a.Value {
				t.Errorf("span %d lost arg %s=%d", r.ID, a.Key, a.Value)
			}
		}
	}
}

func TestPhaseTotalsAndSummary(t *testing.T) {
	c := NewCollector()
	stubClock(c)
	root := c.Start("MST-BC", "MST-BC")
	root.SetInt("workers", 3)
	setup := root.Child("setup")
	setup.SetInt("radix_passes", 2)
	setup.End()
	for i := 0; i < 2; i++ {
		lv := root.Child("level")
		lv.SetInt("n", int64(100>>i))
		g := lv.Child("grow")
		inner := g.Child("sort")
		inner.End()
		g.End()
		for j := 0; j < 2; j++ {
			f := lv.Child("fixup")
			f.End()
		}
		lv.End()
	}
	root.End()

	spans := c.Spans()
	var wantLevel time.Duration
	var grows, fixups []time.Duration
	for _, r := range spans {
		switch r.Name {
		case "level":
			wantLevel += r.Dur
		case "grow":
			grows = append(grows, r.Dur)
		case "fixup":
			fixups = append(fixups, r.Dur)
		}
	}

	reg := NewRegistry()
	reg.Counter("edges_retired").Add(42)
	s := c.Summarize(reg)
	if s.Algorithm != "MST-BC" || s.Workers != 3 {
		t.Fatalf("summary identity = %q/%d", s.Algorithm, s.Workers)
	}
	if s.SpanCount != len(spans) {
		t.Fatalf("SpanCount = %d, want %d", s.SpanCount, len(spans))
	}
	if s.PhaseTotal("level") != wantLevel {
		t.Fatalf("PhaseTotal(level) = %v, want %v", s.PhaseTotal("level"), wantLevel)
	}
	if s.Counts["level"] != 2 || s.Counts["fixup"] != 4 || s.Counts["MST-BC"] != 1 {
		t.Fatalf("counts = %v", s.Counts)
	}
	// Args: the root's and its non-round children's, never a round's.
	wantArgs := map[string]int64{"MST-BC.workers": 3, "setup.radix_passes": 2}
	if len(s.Args) != len(wantArgs) {
		t.Fatalf("args = %v, want %v", s.Args, wantArgs)
	}
	for k, v := range wantArgs {
		if s.Args[k] != v {
			t.Fatalf("args = %v, want %v", s.Args, wantArgs)
		}
	}
	// Rounds: one per level, its args, and its direct children's
	// durations summed by name in end order (the nested sort is not a
	// step of the level).
	if len(s.Rounds) != 2 {
		t.Fatalf("%d rounds, want 2", len(s.Rounds))
	}
	for i, r := range s.Rounds {
		if r.Name != "level" || r.Arg("n") != int64(100>>i) {
			t.Fatalf("round %d = %+v", i, r)
		}
		if len(r.StepNS) != 2 || r.StepNS[0].Key != "grow" || r.StepNS[1].Key != "fixup" {
			t.Fatalf("round %d steps = %+v, want grow then fixup", i, r.StepNS)
		}
		if r.Step("grow") != grows[i] || r.Step("fixup") != fixups[2*i]+fixups[2*i+1] {
			t.Fatalf("round %d steps = %+v, want grow %v and fixups %v", i, r.StepNS, grows[i], fixups[2*i:2*i+2])
		}
	}
	if s.Counters["edges_retired"] != 42 {
		t.Fatalf("counters = %v", s.Counters)
	}
	var root2 SpanRecord
	for _, r := range spans {
		if r.Parent == 0 {
			root2 = r
		}
	}
	if got, want := time.Duration(s.WallNS), root2.End(); got != want {
		t.Fatalf("WallNS = %v, want root end %v", got, want)
	}
}

// Team workers end their spans concurrently; the summary must still see
// every one of them in the right round.
func TestSummarizeConcurrentRounds(t *testing.T) {
	c := NewCollector()
	root := c.Start("run", "cat")
	const rounds, workers, per = 3, 4, 50
	for i := 0; i < rounds; i++ {
		it := root.Child("iteration")
		it.SetInt("n", int64(i))
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				for j := 0; j < per; j++ {
					s := it.Child("work")
					s.SetWorker(w)
					s.End()
				}
			}(w)
		}
		wg.Wait()
		it.End()
	}
	root.End()

	s := c.Summarize(nil)
	if s.Counts["work"] != rounds*workers*per || s.Counts["iteration"] != rounds {
		t.Fatalf("counts = %v", s.Counts)
	}
	if len(s.Rounds) != rounds {
		t.Fatalf("%d rounds, want %d", len(s.Rounds), rounds)
	}
	var sum time.Duration
	for i, r := range s.Rounds {
		if r.Arg("n") != int64(i) || len(r.StepNS) != 1 {
			t.Fatalf("round %d = %+v", i, r)
		}
		sum += r.Step("work")
	}
	if sum != s.PhaseTotal("work") {
		t.Fatalf("rounds hold %v of work, phase total %v", sum, s.PhaseTotal("work"))
	}
}

func TestConcurrentSpansSafe(t *testing.T) {
	c := NewCollector()
	root := c.Start("run", "cat")
	var wg sync.WaitGroup
	const workers = 8
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := root.Child("work")
				s.SetWorker(w)
				s.SetInt("i", int64(i))
				s.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	spans := c.Spans()
	if len(spans) != workers*200+1 {
		t.Fatalf("got %d spans, want %d", len(spans), workers*200+1)
	}
	ids := make(map[int64]bool, len(spans))
	for _, r := range spans {
		if ids[r.ID] {
			t.Fatalf("duplicate id %d", r.ID)
		}
		ids[r.ID] = true
	}
}
