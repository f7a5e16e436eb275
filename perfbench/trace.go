package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the public function it calls. Spans of one benchmark
// operation share Op; Parent is the enclosing span's ID (0 at the top).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them as JSON at exit.
// Untraced code paths make no tracer calls at all.
type tracer struct {
	base  time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// open starts a span; close it with tracer.close.
type openSpan struct {
	id, parent, op int64
	name           string
	start          time.Time
}

func (t *tracer) open(name string, parent, op int64) openSpan {
	return openSpan{id: t.ids.Add(1), parent: parent, op: op, name: name, start: time.Now()}
}

// close ends s.
func (t *tracer) close(s openSpan) {
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
		Start: s.start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds(),
	})
	t.mu.Unlock()
}

// record adds an already-measured interval as a span.
func (t *tracer) record(name string, parent, op int64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: t.ids.Add(1), Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds(),
	})
	t.mu.Unlock()
}

// layerTimes summarizes the spans per name: durations and self times
// (duration minus the part of the interval child spans cover), in
// nanoseconds.
type layerTimes struct {
	dur, self map[string][]float64
}

func (t *tracer) summarize() layerTimes {
	lt := layerTimes{dur: map[string][]float64{}, self: map[string][]float64{}}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		d := float64(s.End - s.Start)
		lt.dur[s.Name] = append(lt.dur[s.Name], d)
		lt.self[s.Name] = append(lt.self[s.Name], d-covered(s, children[s.ID]))
	}
	return lt
}

// covered returns how many nanoseconds of parent's interval the union of
// kids' intervals covers.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return float64(total)
}

// p50us returns the median duration of the named spans in microseconds.
func (lt layerTimes) p50us(name string) float64 { return median(lt.dur[name]) / 1e3 }

// selfP50us returns the median self time in microseconds.
func (lt layerTimes) selfP50us(name string) float64 { return median(lt.self[name]) / 1e3 }

// write dumps every span plus the per-name medians to path as JSON.
func (t *tracer) write(path string, lt layerTimes) error {
	type nameSummary struct {
		Count     int     `json:"count"`
		DurP50us  float64 `json:"dur_p50_us"`
		SelfP50us float64 `json:"self_p50_us"`
	}
	summary := map[string]nameSummary{}
	for name, ds := range lt.dur {
		summary[name] = nameSummary{Count: len(ds), DurP50us: lt.p50us(name), SelfP50us: lt.selfP50us(name)}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	body, err := json.Marshal(struct {
		Summary map[string]nameSummary `json:"summary"`
		Spans   []span                 `json:"spans"`
	}{summary, t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
