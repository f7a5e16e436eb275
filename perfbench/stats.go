package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 when empty). It
// sorts a copy, so callers may keep appending to xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// micros converts a duration to fractional microseconds.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// medianSetup runs set-up n times and returns the median duration in
// seconds, each attempt scaled by a speed probe taken just before it (see
// speedRef), the median raw duration, and the last set-up's result;
// earlier results are handed to discard so they release their resources
// before the next attempt starts.
func medianSetup[T any](n int, speed *speedRef, setup func() (T, error), discard func(T)) (last T, scaled, raw float64, err error) {
	var scaledTimes, rawTimes []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(last)
		}
		k := speed.probe()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return v, 0, 0, err
		}
		t := time.Since(t0).Seconds()
		rawTimes = append(rawTimes, t)
		scaledTimes = append(scaledTimes, t*k)
		last = v
	}
	return last, median(scaledTimes), median(rawTimes), nil
}

// memProbe brackets a measured phase with runtime.MemStats readings for
// the allocation and GC counters.
type memProbe struct{ before runtime.MemStats }

func startMem() *memProbe {
	p := &memProbe{}
	runtime.ReadMemStats(&p.before)
	return p
}

// allocs returns the mallocs and bytes allocated since startMem, and the
// share of CPU time the collector used over the process lifetime.
func (p *memProbe) allocs() (mallocs, bytes uint64, gcFraction float64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return now.Mallocs - p.before.Mallocs, now.TotalAlloc - p.before.TotalAlloc, now.GCCPUFraction
}

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// sample is one timed op: when it completed, in ns since its phase
// started, and its latency in µs.
type sample struct {
	end int64
	us  float64
}

// runStats returns the pooled median and 99th percentile of a phase's
// latencies and its completed ops per second over the measured seconds.
// Pooled figures over the whole run are steadier than medians over short
// windows: garbage collection and the shared host make a window's
// figures swing by half, and a median over a few windows inherits that.
func runStats(ss []sample, seconds float64) (p50, p99, tput float64) {
	lat := latencies(ss)
	return median(lat), quantile(lat, 0.99), float64(len(ss)) / seconds
}

// latencies returns the samples' latencies.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.us
	}
	return out
}
