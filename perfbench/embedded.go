package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"time"

	"gsv"
	"gsv/internal/oem"
	"gsv/internal/wal"
)

// embeddedViews are the eight materialized views of embedded-write: six
// Algorithm 1 views spread over the relations and the age/f1–f3 labels,
// so screening has leverage, and two wildcard views the general
// maintainer keeps.
var embeddedViews = []struct{ name, query string }{
	{"AGE0", "SELECT REL.r0.tuple X WHERE X.age > 30"},
	{"AGE1", "SELECT REL.r1.tuple X WHERE X.age > 50"},
	{"AGE2", "SELECT REL.r2.tuple X WHERE X.age > 70"},
	{"F1R2", "SELECT REL.r2.tuple X WHERE X.f1 = 'v7'"},
	{"F2R3", "SELECT REL.r3.tuple X WHERE X.f2 = 'v7'"},
	{"F3R0", "SELECT REL.r0.tuple X WHERE X.f3 = 'v7'"},
	{"WAGE", "SELECT REL.* X WHERE X.age > 95"},
	{"WF4", "SELECT REL.* X WHERE X.f4 = 'v7'"},
}

const (
	embeddedTuples = 2000
	// heapProbeOps is the op count at which embedded-write reads its
	// live heap: a fixed count, because the store's update log grows
	// with every op and a time-bounded closed loop would otherwise make
	// a faster program look heavier.
	heapProbeOps = 5000
	// genChunk is how many ops are generated per (untimed) refill.
	genChunk = 4096
	// recoveries is how many Close+TryOpen cycles recovery_s takes the
	// median of.
	recoveries = 3
)

type embeddedDB struct {
	dir string
	db  *gsv.DB
	wal *wal.Metrics
}

func (e *embeddedDB) discard() {
	_ = e.db.Close() // the directory is removed next
	_ = os.RemoveAll(e.dir)
}

// openEmbedded builds the fixture, opens it durable and defines the views.
func openEmbedded(cfg config, tuples int) (*embeddedDB, error) {
	dir, err := scratchDir(cfg, "wal-")
	if err != nil {
		return nil, err
	}
	e := &embeddedDB{dir: dir, wal: wal.NewMetrics()}
	e.db, err = gsv.TryOpen(
		gsv.WithStore(buildFixture(tuples, cfg.seed)),
		gsv.WithDurability(dir, gsv.SyncNever),
		gsv.WithDurabilityMetrics(e.wal))
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	for _, v := range embeddedViews {
		if _, err := e.db.Define(fmt.Sprintf("define mview %s as: %s", v.name, v.query)); err != nil {
			e.discard()
			return nil, fmt.Errorf("defining %s: %w", v.name, err)
		}
	}
	return e, nil
}

// apply issues one op through the facade. With a tracer it makes the
// facade's two steps — the store mutation and DB.Sync — separately, as
// gsv.update > store.commit + gsv.sync spans.
func (e *embeddedDB) apply(o op, tr *tracer, id int64) error {
	if tr == nil {
		switch o.kind {
		case opModify:
			return e.db.Modify(o.n1, o.val)
		case opPut:
			return e.db.PutAtom(o.n1, o.label, o.val)
		case opInsert:
			return e.db.Insert(o.n1, o.n2)
		default:
			return e.db.Delete(o.n1, o.n2)
		}
	}
	s := e.db.Store
	top := tr.open("gsv.update", 0, id)
	c := tr.open("store.commit", top.id, id)
	var err error
	switch o.kind {
	case opModify:
		err = s.Modify(o.n1, o.val)
	case opPut:
		err = s.Put(oem.NewAtom(o.n1, o.label, o.val))
	case opInsert:
		err = s.Insert(o.n1, o.n2)
	default:
		err = s.Delete(o.n1, o.n2)
	}
	tr.close(c)
	sy := tr.open("gsv.sync", top.id, id)
	errs := e.db.Sync()
	tr.close(sy)
	tr.close(top)
	if err == nil && len(errs) > 0 {
		err = errs[0]
	}
	return err
}

// embeddedPhase is the closed-loop writer's measured stretch.
type embeddedPhase struct {
	// ss are the untraced ops; traced the ops made with spans (every
	// other op when tracing, so host drift hits both alike).
	ss, traced []sample
	// speed followed the host through the phase.
	speed   *speedTrack
	failed  int
	heapMB  float64
	mallocs uint64
	bytes   uint64
	gcFrac  float64
}

func (ph *embeddedPhase) ops() int { return len(ph.ss) + len(ph.traced) }

// runPhase drives ops for the given seconds. With a tracer every other
// op is traced; without one the live heap is read at heapProbeOps.
// Refilling the op list, the heap probe and the speed ticks pause the
// clock: the deadline moves by their duration.
func (e *embeddedDB) runPhase(gen *embeddedGen, seconds float64, tr *tracer, speed *speedRef) embeddedPhase {
	var ph embeddedPhase
	if len(gen.pending) == 0 {
		gen.pending = gen.fill(genChunk)
	}
	mem := startMem()
	ph.speed = speed.trackAfterGC()
	start := ph.speed.start
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	pause := func(fn func()) {
		t0 := time.Now()
		fn()
		deadline = deadline.Add(time.Since(t0))
	}
	for i := 0; ; i++ {
		if len(gen.pending) == 0 {
			pause(func() { gen.pending = gen.fill(genChunk) })
		}
		if tr == nil && i == heapProbeOps {
			pause(func() { ph.heapMB = liveHeapMB() })
		}
		deadline = deadline.Add(ph.speed.tick())
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		var opTr *tracer
		if i%2 == 1 {
			opTr = tr
		}
		err := e.apply(gen.pending[0], opTr, int64(i))
		t1 := time.Now()
		s := sample{end: t1.Sub(start).Nanoseconds(), us: micros(t1.Sub(t0))}
		if opTr != nil {
			ph.traced = append(ph.traced, s)
		} else {
			ph.ss = append(ph.ss, s)
		}
		if err != nil {
			ph.failed++
		}
		gen.pending = gen.pending[1:]
	}
	ph.mallocs, ph.bytes, ph.gcFrac = mem.allocs()
	if tr == nil && ph.heapMB == 0 {
		ph.heapMB = liveHeapMB()
	}
	return ph
}

func runEmbedded(cfg config) (*report, error) {
	tuples := cfg.tuples
	if tuples <= 0 {
		tuples = embeddedTuples
	}
	rep := newReport()
	e, setupS, setupRaw, err := medianSetup(cfg.setups, cfg.speed,
		func() (*embeddedDB, error) { return openEmbedded(cfg, tuples) },
		(*embeddedDB).discard)
	if err != nil {
		return nil, err
	}
	defer func() { e.discard() }()
	rep.e2e["setup_s"] = setupS
	gen := newEmbeddedGen(cfg.seed+1, tuples)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	sched := &e.db.Views.Scheduler().Metrics
	b0, bs0, r0, s0 := sched.BatchLatency.Count(), sched.BatchLatency.Sum(), sched.RoutedPairs.Value(), sched.ScreenedPairs.Value()
	wb0, wc0, wcs0 := e.wal.AppendedBytes.Value(), e.wal.CheckpointSeconds.Count(), e.wal.CheckpointSeconds.Sum()
	ph := e.runPhase(gen, cfg.seconds, tr, cfg.speed)
	sf := ph.speed.factor()
	lat := latencies(ph.ss)
	rep.attempted += ph.ops()
	rep.failed += ph.failed
	p50, p99, tput := runStats(ph.ss, cfg.seconds)
	rep.e2e["op_p50_us"], rep.e2e["op_tput"] = median(ph.speed.scale(ph.ss)), tput/sf
	rep.layer["bench.op_p99_us"], rep.layer["bench.speed_factor"] = p99, sf
	rep.e2e["heap_mb"] = ph.heapMB
	rep.notef("%d updates (%d traced), %d failed; op samples (the p99 needs 1000): %d",
		ph.ops(), len(ph.traced), ph.failed, len(lat))
	rep.notef("raw: setup %.3fs, update p50 %.1fus p99 %.1fus, %.1f updates/s; speed factor %.3f", setupRaw, p50, p99, tput, sf)

	if cfg.trace {
		n := float64(max(ph.ops(), 1))
		lt := tr.summarize()
		l := rep.layer
		l["gsv.sync_us"] = lt.p50us("gsv.sync")
		l["store.commit_us"] = lt.p50us("store.commit")
		l["core.batch_us"] = meanDelta(sched.BatchLatency.Sum()-bs0, sched.BatchLatency.Count()-b0) * 1e6
		routed, screened := float64(sched.RoutedPairs.Value()-r0), float64(sched.ScreenedPairs.Value()-s0)
		l["core.pairs_routed_per_update"] = routed / n
		if routed+screened > 0 {
			l["core.screened_ratio"] = screened / (routed + screened)
		}
		l["wal.bytes_per_update"] = float64(e.wal.AppendedBytes.Value()-wb0) / n
		l["wal.checkpoints"] = float64(e.wal.CheckpointSeconds.Count() - wc0)
		l["wal.checkpoint_ms"] = meanDelta(e.wal.CheckpointSeconds.Sum()-wcs0, e.wal.CheckpointSeconds.Count()-wc0) * 1e3
		l["runtime.allocs_per_op"] = float64(ph.mallocs) / n
		l["runtime.alloc_bytes_per_op"] = float64(ph.bytes) / n
		l["runtime.gc_cpu_fraction"] = ph.gcFrac
		l["bench.op_samples"] = float64(len(lat))
		l["bench.trace_overhead_pct"] = pctOver(median(latencies(ph.traced)), median(lat))
		// Blocking path of one update: the store commit, then Sync (WAL
		// append, maintenance, checkpoint when due).
		l["bench.path_coverage_pct"] = 100 * (lt.selfP50us("gsv.update") + lt.selfP50us("store.commit") + lt.selfP50us("gsv.sync")) / median(lat)
		rep.notef("spans in %s", tracePath(cfg))
		if err := tr.write(tracePath(cfg), lt); err != nil {
			return nil, err
		}
	}

	// §4.4: every view's members equal a from-scratch evaluation of its
	// SELECT.
	before := map[string][]oem.OID{}
	for i, v := range embeddedViews {
		got, err := e.db.ViewMembers(v.name)
		if err != nil {
			rep.fail("members of %s: %v", v.name, err)
			continue
		}
		want, err := e.db.Query(v.query)
		if err != nil {
			rep.fail("query %s: %v", v.name, err)
			continue
		}
		rep.checkMembers("view "+v.name+" vs recompute", got, cfg.corruptFirst(i, want))
		before[v.name] = got
	}
	sum := storeDigest(e.db)

	// Recovery: Close (final checkpoint) and TryOpen of the same
	// directory; the state must come back member for member.
	var times, raw []float64
	for i := 0; i < recoveries; i++ {
		sf := cfg.speed.probe()
		t0 := time.Now()
		if err := e.db.Close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
		e.wal = wal.NewMetrics()
		e.db, err = gsv.TryOpen(gsv.WithDurability(e.dir, gsv.SyncNever), gsv.WithDurabilityMetrics(e.wal))
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		t := time.Since(t0).Seconds()
		raw = append(raw, t)
		times = append(times, t*sf)
		for _, v := range embeddedViews {
			got, err := e.db.ViewMembers(v.name)
			if err != nil {
				rep.fail("members of %s after reopen: %v", v.name, err)
				continue
			}
			rep.checkMembers("view "+v.name+" after reopen", got, before[v.name])
		}
		if after := storeDigest(e.db); after != sum {
			rep.fail("store digest after reopen %s, before %s", after, sum)
		}
	}
	rep.e2e["recovery_s"] = median(times)
	rep.notef("raw: recovery %.3fs", median(raw))
	return rep, nil
}

// storeDigest hashes every object of the database's store, order-free.
func storeDigest(db *gsv.DB) string {
	var lines []string
	db.Store.ForEach(func(o *oem.Object) {
		set := append([]oem.OID(nil), o.Set...)
		sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
		lines = append(lines, fmt.Sprintf("%s|%s|%d|%s|%v|%v", o.OID, o.Label, o.Kind, o.Type, o.Atom, set))
	})
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// meanDelta is sum/count, or 0 with no observations.
func meanDelta(sum float64, count uint64) float64 {
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// pctOver is how many percent a exceeds b.
func pctOver(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * (a - b) / b
}
