package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"gsv/internal/feed"
	"gsv/internal/replica"
)

const (
	// followRate is the open-loop writer's rate on replica-follow.
	followRate = 200.0
	// visibleTimeout bounds how long after the writer stops every
	// membership-changing update may take to reach the replica.
	visibleTimeout = 10 * time.Second
	// catchUpTimeout bounds a replica bootstrap.
	catchUpTimeout = 30 * time.Second
)

// eventKey identifies one feed event: view and view-local cursor, which
// the replica republishes unchanged.
type eventKey struct {
	view   string
	cursor uint64
}

// arrival is one event as a hub subscriber received it.
type arrival struct {
	key eventKey
	seq uint64
	at  time.Time
}

// hubTap subscribes to every view of a hub and records each event's
// arrival time.
type hubTap struct {
	subs []*feed.Subscription
	wg   sync.WaitGroup
	mu   sync.Mutex
	got  []arrival
}

func tapHub(h *feed.Hub) (*hubTap, error) {
	t := &hubTap{}
	for _, v := range warehouseViews {
		// A buffer far above the writer's per-heartbeat event count keeps
		// the blocking policy from ever stalling the publisher.
		sub, err := h.Subscribe(v.name, feed.SubOptions{Buffer: 1 << 14})
		if err != nil {
			t.close()
			return nil, err
		}
		t.subs = append(t.subs, sub)
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			for ev := range sub.Events() {
				a := arrival{key: eventKey{ev.View, ev.Cursor}, seq: ev.Seq, at: time.Now()}
				t.mu.Lock()
				t.got = append(t.got, a)
				t.mu.Unlock()
			}
		}()
	}
	return t, nil
}

func (t *hubTap) close() {
	for _, s := range t.subs {
		s.Close()
	}
	t.wg.Wait()
}

func (t *hubTap) arrivals() []arrival {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]arrival(nil), t.got...)
}

type followSetup struct {
	p       *primary
	r       *replica.Replica
	primTap *hubTap
	repTap  *hubTap
}

func (f *followSetup) discard() {
	if f.repTap != nil {
		f.repTap.close()
	}
	if f.primTap != nil {
		f.primTap.close()
	}
	if f.r != nil {
		f.r.Close()
	}
	f.p.close()
}

// startReplica bootstraps a replica of the primary from live snapshots
// and waits until it has caught up.
func startReplica(p *primary, name string) (*replica.Replica, error) {
	r, err := replica.New(replica.Options{Name: name, Primary: p.addr})
	if err != nil {
		return nil, err
	}
	if !r.WaitCaughtUp(catchUpTimeout) {
		r.Close()
		return nil, fmt.Errorf("replica %s never caught up", name)
	}
	return r, nil
}

// visibleTimes are per-update latencies in µs of the membership-changing
// updates that reached the replica.
type visibleTimes struct {
	// issued runs from the writer issuing the update to its last event
	// arriving on the replica hub, in arrival order; due runs from its
	// due time instead.
	issued []sample
	due    []float64
	// ship runs from ProcessBatch returning on the primary to arrival.
	ship []float64
	// missing counts membership-changing updates that never arrived.
	missing int
}

// visibility pairs each writer update with the primary's events for it
// and their arrival on the replica hub.
func visibility(ws []write, prim, rep []arrival, start time.Time) visibleTimes {
	bySeq := map[uint64][]eventKey{}
	for _, a := range prim {
		bySeq[a.seq] = append(bySeq[a.seq], a.key)
	}
	at := map[eventKey]time.Time{}
	for _, a := range rep {
		if _, dup := at[a.key]; !dup {
			at[a.key] = a.at
		}
	}
	var vt visibleTimes
	for _, w := range ws {
		keys := bySeq[w.seq]
		if w.failed || len(keys) == 0 {
			continue
		}
		var last time.Time
		ok := true
		for _, k := range keys {
			t, seen := at[k]
			if !seen {
				ok = false
				break
			}
			if t.After(last) {
				last = t
			}
		}
		if !ok {
			vt.missing++
			continue
		}
		vt.issued = append(vt.issued, sample{end: last.Sub(start).Nanoseconds(), us: micros(last.Sub(w.start))})
		vt.due = append(vt.due, micros(last.Sub(w.due)))
		vt.ship = append(vt.ship, micros(last.Sub(w.done)))
	}
	sort.Slice(vt.issued, func(i, j int) bool { return vt.issued[i].end < vt.issued[j].end })
	return vt
}

// waitArrivals waits until both taps have received every event the
// primary's hub has published so far, or the timeout passes. Events of
// one view arrive in cursor order, so the highest cursor seen per view
// tells whether a tap is complete.
func waitArrivals(h *feed.Hub, prim, rep *hubTap, timeout time.Duration) {
	want := map[string]uint64{}
	for _, v := range warehouseViews {
		want[v.name], _ = h.Cursor(v.name)
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) && !(prim.reached(want) && rep.reached(want)) {
		time.Sleep(5 * time.Millisecond)
	}
}

// reached reports whether the tap has seen cursor want[v] on every view.
func (t *hubTap) reached(want map[string]uint64) bool {
	top := map[string]uint64{}
	t.mu.Lock()
	for _, a := range t.got {
		top[a.key.view] = max(top[a.key.view], a.key.cursor)
	}
	t.mu.Unlock()
	for v, c := range want {
		if top[v] < c {
			return false
		}
	}
	return true
}

func runReplica(cfg config) (*report, error) {
	tuples := cfg.tuples
	if tuples <= 0 {
		tuples = primaryTuples
	}
	rep := newReport()
	fs, setupS, setupRaw, err := medianSetup(cfg.setups, cfg.speed, func() (*followSetup, error) {
		p, err := startPrimary(cfg, tuples)
		if err != nil {
			return nil, err
		}
		fs := &followSetup{p: p}
		if fs.r, err = startReplica(p, "r0"); err != nil {
			fs.discard()
			return nil, err
		}
		if fs.primTap, err = tapHub(p.w.Feed); err != nil {
			fs.discard()
			return nil, err
		}
		if fs.repTap, err = tapHub(fs.r.Hub()); err != nil {
			fs.discard()
			return nil, err
		}
		return fs, nil
	}, (*followSetup).discard)
	if err != nil {
		return nil, err
	}
	defer func() { fs.discard() }()
	p := fs.p
	rep.e2e["setup_s"] = setupS

	// recovery_s: fresh replicas bootstrap before the writer runs. After
	// it they also replay the feed rings it filled, and their time swung
	// between two levels, 0.13 and 0.29 s, across runs of the same seed.
	recS, recRaw, err := bootstrapReplicas(cfg, p, rep)
	if err != nil {
		return nil, err
	}
	rep.e2e["recovery_s"] = recS
	rep.notef("raw: recovery %.4fs", recRaw)

	writes, err := flipOps(p.src.Store, cfg.seed+3, tuples, int(cfg.seconds*followRate)+1)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	c0, s0 := p.counters(), p.schedCounters()
	mem := startMem()
	sp := cfg.speed.track()
	start := sp.start
	ws := p.writeLoop(writes, followRate, cfg.seconds, tr, sp)
	mallocs, bytes, gcFrac := mem.allocs()
	waitArrivals(p.w.Feed, fs.primTap, fs.repTap, visibleTimeout)
	prim, repl := fs.primTap.arrivals(), fs.repTap.arrivals()
	var plainWs, tracedWs []write
	for _, w := range ws {
		if w.traced {
			tracedWs = append(tracedWs, w)
		} else {
			plainWs = append(plainWs, w)
		}
	}
	vt := visibility(plainWs, prim, repl, start)
	tvt := visibility(tracedWs, prim, repl, start)
	issued := latencies(vt.issued)
	rep.attempted += len(ws)
	rep.failed += failedWrites(ws) + vt.missing + tvt.missing
	if n := vt.missing + tvt.missing; n > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d membership-changing updates never reached the replica", n))
	}
	// The writer is open-loop, so op_tput follows its rate, not the
	// host's speed, and is not scaled.
	p50, p99, tput := runStats(vt.issued, cfg.seconds)
	sf := sp.factor()
	rep.e2e["op_p50_us"], rep.e2e["op_tput"] = median(sp.scale(vt.issued)), tput
	rep.layer["bench.op_p99_us"], rep.layer["bench.speed_factor"] = p99, sf
	rep.notef("raw: setup %.3fs, visible p50 %.1fus p99 %.1fus; speed factor %.3f", setupRaw, p50, p99, sf)
	rep.e2e["heap_mb"] = liveHeapMB()
	rep.notef("%d writes (%d traced), %d untraced visible (op samples; the p99 needs 1000), %d never visible",
		len(ws), len(tracedWs), len(issued), vt.missing+tvt.missing)
	rep.notef("untraced pooled: visible from issue p50 %.0fus p99 %.0fus; from due p50 %.0fus p99 %.0fus; ship+apply p50 %.0fus p99 %.0fus",
		median(issued), quantile(issued, .99), median(vt.due), quantile(vt.due, .99), median(vt.ship), quantile(vt.ship, .99))
	rep.notef("writer lateness p50 %.0fus p99 %.0fus; replica feed redials %d, resyncs %d",
		1e3*quantile(lateness(ws), .5), 1e3*writerLateMs(ws), fs.r.FeedRedials(), fs.r.Resyncs())

	if cfg.trace {
		lt := tr.summarize()
		l := rep.layer
		p.layerWriteMetrics(l, ws, lt, c0, s0)
		l["replica.ship_apply_p50_us"] = median(tvt.ship)
		l["replica.ship_apply_p99_us"] = quantile(tvt.ship, 0.99)
		prop := fs.r.PropagationSamples()
		for i := range prop {
			prop[i] *= 1e6
		}
		l["replica.prop_p50_us"] = median(prop)
		n := float64(max(len(ws), 1))
		l["runtime.allocs_per_op"] = float64(mallocs) / n
		l["runtime.alloc_bytes_per_op"] = float64(bytes) / n
		l["runtime.gc_cpu_fraction"] = gcFrac
		l["bench.writer_late_ms"] = writerLateMs(ws)
		l["bench.op_samples"] = float64(len(issued))
		l["bench.trace_overhead_pct"] = pctOver(median(latencies(tvt.issued)), median(issued))
		// Blocking path of a visible update: source apply, ProcessBatch,
		// then ship and apply on the replica.
		path := lt.p50us("warehouse.source_apply") + l["warehouse.process_batch_p50_us"] + median(tvt.ship)
		if v := median(issued); v > 0 {
			l["bench.path_coverage_pct"] = 100 * path / v
		}
		rep.notef("spans in %s", tracePath(cfg))
		if err := tr.write(tracePath(cfg), lt); err != nil {
			return nil, err
		}
	}

	// At the end the replica's members equal the primary's, which equal
	// from-scratch evaluation at the final sequence number.
	if !fs.r.WaitSeq(p.src.Store.Seq(), visibleTimeout) {
		rep.fail("replica never reached primary seq %d", p.src.Store.Seq())
	}
	for i, v := range warehouseViews {
		want, err := p.oracle(v.query)
		if err != nil {
			return nil, err
		}
		want = cfg.corruptFirst(i, want)
		prim, err := p.w.FreshMembers(v.name)
		if err != nil {
			rep.fail("primary members of %s: %v", v.name, err)
			continue
		}
		rep.checkMembers("primary view "+v.name+" vs recompute", prim, want)
		got, err := fs.r.Members(v.name)
		if err != nil {
			rep.fail("replica members of %s: %v", v.name, err)
			continue
		}
		rep.checkMembers("replica view "+v.name+" vs recompute", got, want)
	}
	return rep, nil
}

// bootstrapReplicas times restarts fresh replica bootstraps from the
// primary's live snapshots until caught up, each scaled by a probe taken
// just before it, and checks each serves the primary's members. It
// returns the median scaled and raw seconds.
func bootstrapReplicas(cfg config, p *primary, rep *report) (scaled, raw float64, err error) {
	var times, raws []float64
	for i := 0; i < restarts; i++ {
		sf := cfg.speed.probe()
		t0 := time.Now()
		r, err := startReplica(p, fmt.Sprintf("restart%d", i))
		if err != nil {
			return 0, 0, err
		}
		t := time.Since(t0).Seconds()
		raws = append(raws, t)
		times = append(times, t*sf)
		for _, v := range warehouseViews {
			want, err := p.w.FreshMembers(v.name)
			if err != nil {
				rep.fail("primary members of %s: %v", v.name, err)
				continue
			}
			got, err := r.Members(v.name)
			if err != nil {
				rep.fail("restarted replica members of %s: %v", v.name, err)
				continue
			}
			rep.checkMembers("restarted replica view "+v.name, got, want)
		}
		r.Close()
	}
	return median(times), median(raws), nil
}
