package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs with linear interpolation
// between closest ranks, or 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile returns the highest of p99 and p90 (in that order) that
// has at least ten samples beyond it, and its name; ok is false when
// even p90 has fewer than ten samples beyond it.
func tailQuantile(xs []float64) (name string, v float64, ok bool) {
	for _, c := range []struct {
		name string
		q    float64
	}{{"p99", 0.99}, {"p90", 0.90}} {
		if float64(len(xs))*(1-c.q) >= 10 {
			return c.name, quantile(xs, c.q), true
		}
	}
	return "", 0, false
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timed runs f and returns its wall time.
func timed(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}

// cleanHeap collects garbage left by the previous operation so it is not
// charged to the next timed one.
func cleanHeap() { runtime.GC() }

// watchRSS reports the peak memory of the phase that starts now. It
// first hands every free page back to the OS, so bursts of earlier
// phases do not count, then samples the resident set every 5 ms until
// stop is called; stop returns the largest sample in MiB. (A single
// allocation burst's peak depends on when the GC pacer happens to run:
// dynamic-window's NewDynamic peaks at either about 340 or about 450 MiB.
// The timed phase repeats its work, so its peak is steady.)
func watchRSS() (stop func() float64) {
	debug.FreeOSMemory()
	done := make(chan struct{})
	peak := make(chan float64)
	go func() {
		hi := rssMiB()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				peak <- max(hi, rssMiB())
				return
			case <-t.C:
				hi = max(hi, rssMiB())
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

// rssMiB reads the resident set from /proc; off Linux it falls back to
// the Go runtime's memory held from the OS.
func rssMiB() float64 {
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys-m.HeapReleased) / (1 << 20)
}
