// Package a exercises the spanpairing analyzer: leaked spans, missed
// early-return paths, reassign-before-End chains, and the patterns that
// must stay clean (defer, per-branch End, the Labeled closure, and the
// return hand-off).
package a

import "pmsf/internal/obs"

func missingEnd(c *obs.Collector) {
	sp := c.Start("root", "algo") // want "not ended on every path"
	sp.SetInt("n", 1)
}

func earlyReturn(c *obs.Collector, cond bool) {
	sp := c.Start("root", "algo")
	if cond {
		return // want "not ended on this return path"
	}
	sp.End()
}

func deferred(c *obs.Collector, cond bool) {
	sp := c.Start("root", "algo")
	defer sp.End()
	if cond {
		return
	}
}

func perBranch(c *obs.Collector, cond bool) int {
	it := c.Start("iteration", "algo")
	if cond {
		it.End()
		return 0
	}
	it.End()
	return 1
}

func reassign(c *obs.Collector) {
	root := c.Start("root", "algo")
	step := root.Child("find-min")
	step = root.Child("connect") // want "reassigned before"
	step.End()
	root.End()
}

func chained(c *obs.Collector) {
	root := c.Start("root", "algo")
	step := root.Child("find-min")
	step.End()
	step = root.Child("connect") // ok: previous span was ended
	step.End()
	root.End()
}

func labeled(c *obs.Collector) {
	sp := c.Start("root", "algo")
	c.Labeled("algo", "phase", func() { sp.End() }) // ok: End inside the synchronous closure
}

func handoff(c *obs.Collector) obs.Span {
	sp := c.Start("root", "algo") // ok: returned, the caller owns End
	return sp
}

func suppressed(c *obs.Collector) {
	sp := c.Start("root", "algo") //msf:ignore spanpairing fixture span is ended by the test harness
	_ = sp
}

func continueLeak(c *obs.Collector, xs []int) {
	for _, x := range xs {
		sp := c.Start("item", "algo") // want "not ended on every path"
		if x < 0 {
			continue
		}
		sp.End()
	}
}

func breakLeak(c *obs.Collector, xs []int) {
	for _, x := range xs {
		sp := c.Start("item", "algo") // want "not ended on every path"
		if x < 0 {
			break
		}
		sp.End()
	}
}
