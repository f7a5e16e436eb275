package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts: the same fixed
// loop can take half as long again from one minute to the next, and every
// timed figure of a run moves with it. A speedRef measures that drift
// with a fixed reference kernel, run on every processor at once:
// dependent random reads over a 4 MiB table, then FNV-1a hashing of short
// byte strings — the kinds of work the store's lookups and the
// collector's marking do. The CPU-bound end-to-end metrics are scaled by
// refNominalMs over the kernel's time taken next to them, so a scaled
// figure is the time the program would take on a host that runs the
// kernel in refNominalMs: it moves with the program's own cost, and much
// less with the host's load. The raw figures and the factors are printed
// on standard error.
//
// The kernel allocates nothing, so it never runs the collector, and its
// buffers hold no pointers, so the collector never scans them. Each run
// first touches the buffers, so its time does not depend on what the
// program left in the caches.

const (
	// refNominalMs is the kernel chunk time the scaled metrics are
	// expressed at: about a 2-vCPU Xeon VM's with light load beside it.
	refNominalMs = 10.0
	refTableLen  = 1 << 19 // 4 MiB of uint64
	refBlobLen   = 1 << 16
	refReads     = 400000
	refHashes    = 80000
	// probeChunks is how many kernel chunks one probe takes the median
	// of.
	probeChunks = 7
)

type speedRef struct {
	table []uint64
	blob  []byte
	sink  uint64
}

func newSpeedRef() *speedRef {
	r := &speedRef{table: make([]uint64, refTableLen), blob: make([]byte, refBlobLen)}
	x := uint64(88172645463325252)
	for i := range r.table {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r.table[i] = x
	}
	for i := range r.blob {
		r.blob[i] = byte(r.table[i%refTableLen] >> 32)
	}
	return r
}

// bytes is the reference's share of the live heap.
func (r *speedRef) bytes() float64 { return float64(8*len(r.table) + len(r.blob)) }

// run runs the kernel with the given counts of reads and hashes on
// every processor at once and returns the mean time in ms: the program's
// goroutines and its collector use every processor, and on a shared host
// each slows down on its own.
func (r *speedRef) run(reads, hashes int) float64 {
	n := runtime.GOMAXPROCS(0)
	ms := make([]float64, n)
	sinks := make([]uint64, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ms[g], sinks[g] = r.kernel(reads, hashes, uint64(g)+r.sink)
		}(g)
	}
	wg.Wait()
	var sum float64
	for g := range ms {
		sum += ms[g]
		r.sink += sinks[g]
	}
	return sum / float64(n)
}

// kernel runs the reference work once from seed x and returns its time
// in ms and a value that depends on all of it.
func (r *speedRef) kernel(reads, hashes int, x uint64) (float64, uint64) {
	x |= 1
	for i := 0; i < refTableLen; i += 8 {
		x += r.table[i]
	}
	for i := 0; i < refBlobLen; i += 64 {
		x += uint64(r.blob[i])
	}
	t0 := time.Now()
	for i := 0; i < reads; i++ {
		x = r.table[x&(refTableLen-1)] ^ (x * 0x9E3779B97F4A7C15)
	}
	for i := 0; i < hashes; i++ {
		off := int(x % (refBlobLen - 32))
		h := uint64(14695981039346656037)
		for _, b := range r.blob[off : off+32] {
			h ^= uint64(b)
			h *= 1099511628211
		}
		x += h
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6, x
}

// probe collects garbage, then returns the factor that scales a time
// measured now to the nominal host: refNominalMs over the median time
// of probeChunks kernel chunks.
func (r *speedRef) probe() float64 {
	runtime.GC()
	ts := make([]float64, probeChunks)
	for i := range ts {
		ts[i] = r.run(refReads, refHashes)
	}
	return refNominalMs / median(ts)
}

const (
	// tickEvery is how often a measured phase's loop runs a tick.
	tickEvery = 200 * time.Millisecond
	// tickDiv is how much smaller a tick's kernel is than a chunk's.
	tickDiv = 4
	// tickWindow is how far from an op its factor's ticks may lie.
	tickWindow = time.Second
)

// speedTrack follows the host's speed through a measured phase, whose
// speed drifts within seconds: the phase's loop calls tick between ops,
// and every tickEvery a tick runs a quarter-size kernel and records its
// time. Each op is then scaled by refNominalMs over the median kernel
// time of the ticks within tickWindow of its completion. One goroutine
// ticks a track.
type speedTrack struct {
	ref   *speedRef
	start time.Time
	next  time.Time
	// at is each tick's time in ns since start; ms its kernel time,
	// scaled to a full chunk.
	at []int64
	ms []float64
	// spent is the time the ticks took.
	spent time.Duration
	// afterGC holds a due tick back until a collection has finished
	// since the previous call, so that the collector's concurrent
	// marking does not slow the kernel; gcs counts finished collections.
	afterGC bool
	gcs     []metrics.Sample
	lastGC  uint64
}

// track starts following the host's speed for a phase that starts now.
func (r *speedRef) track() *speedTrack {
	now := time.Now()
	return &speedTrack{ref: r, start: now, next: now}
}

// trackAfterGC is track for a phase whose load keeps the collector
// busy: its ticks run just after a collection finishes.
func (r *speedRef) trackAfterGC() *speedTrack {
	t := r.track()
	t.afterGC = true
	t.gcs = []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(t.gcs)
	t.lastGC = t.gcs[0].Value.Uint64()
	return t
}

// tick runs a tick when one is due and returns the time it took.
func (t *speedTrack) tick() time.Duration {
	now := time.Now()
	if t.afterGC {
		metrics.Read(t.gcs)
		n := t.gcs[0].Value.Uint64()
		fresh := n != t.lastGC
		t.lastGC = n
		if !fresh {
			return 0
		}
	}
	if now.Before(t.next) {
		return 0
	}
	ms := t.ref.run(refReads/tickDiv, refHashes/tickDiv) * tickDiv
	t.at = append(t.at, now.Sub(t.start).Nanoseconds())
	t.ms = append(t.ms, ms)
	d := time.Since(now)
	t.next = now.Add(tickEvery)
	t.spent += d
	return d
}

// factor is the factor over the whole phase, from the median tick (1
// with no ticks).
func (t *speedTrack) factor() float64 {
	if len(t.ms) == 0 {
		return 1
	}
	return refNominalMs / median(t.ms)
}

// scale returns the samples' latencies, each multiplied by the factor
// around its completion (see speedTrack).
func (t *speedTrack) scale(ss []sample) []float64 {
	if len(t.ms) == 0 {
		return latencies(ss)
	}
	// near[i] is the factor of the ticks within tickWindow of tick i.
	near := make([]float64, len(t.ms))
	w := tickWindow.Nanoseconds()
	for i, at := range t.at {
		lo := sort.Search(len(t.at), func(j int) bool { return t.at[j] >= at-w })
		hi := sort.Search(len(t.at), func(j int) bool { return t.at[j] > at+w })
		near[i] = refNominalMs / median(t.ms[lo:hi])
	}
	out := make([]float64, len(ss))
	for k, s := range ss {
		i := sort.Search(len(t.at), func(j int) bool { return t.at[j] >= s.end })
		if i == len(t.at) || (i > 0 && s.end-t.at[i-1] < t.at[i]-s.end) {
			i--
		}
		out[k] = s.us * near[i]
	}
	return out
}
