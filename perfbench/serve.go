package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/warehouse"
)

const (
	// serveWriteRate is the open-loop writer's rate beside the reads.
	serveWriteRate = 50.0
	// readClients is the number of closed-loop client connections.
	readClients = 1
	// readListLen is the length of each client's (cycled) read list.
	readListLen = 8192
	// restarts is how many serving-tier restarts (or replica
	// bootstraps) recovery_s takes the median of.
	restarts = 15
)

type readKind uint8

const (
	readObject readKind = iota
	readView
	readQuery
)

var readKindNames = [...]string{"object", "view", "query"}

// readOp is one client read: an object fetch, a view's members, or a
// constant-path query.
type readOp struct {
	kind readKind
	oid  oem.OID
	view string
	q    *query.Query
}

// readQueries are the constant-path queries clients issue.
func readQueries() []string {
	var qs []string
	for r := 0; r < relations; r++ {
		for _, a := range []int{20, 40, 60, 80} {
			qs = append(qs, fmt.Sprintf("SELECT REL.r%d.tuple X WHERE X.age > %d", r, a))
		}
	}
	return qs
}

// readOps generates one client's read mix: 60% object, 30% members,
// 10% query.
func readOps(seed int64, tuples int, parsed map[string]*query.Query, qs []string) []readOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]readOp, readListLen)
	for i := range ops {
		switch p := rng.Intn(10); {
		case p < 6:
			r, t, f := rng.Intn(relations), rng.Intn(tuples), rng.Intn(fieldsPerTuple+1)
			oid := tupleOID(r, t)
			if f < fieldsPerTuple {
				oid = fieldOID(r, t, f)
			}
			ops[i] = readOp{kind: readObject, oid: oid}
		case p < 9:
			ops[i] = readOp{kind: readView, view: warehouseViews[rng.Intn(len(warehouseViews))].name}
		default:
			ops[i] = readOp{kind: readQuery, q: parsed[qs[rng.Intn(len(qs))]]}
		}
	}
	return ops
}

// readStats collects the client reads of a run.
type readStats struct {
	// lat and tlat are the untraced and traced reads' µs per kind.
	lat, tlat [3][]float64
	// all are the untraced reads, in completion order.
	all    []sample
	failed int
}

// merge adds b's reads, keeping all in completion order.
func (a *readStats) merge(b readStats) {
	for k := range a.lat {
		a.lat[k] = append(a.lat[k], b.lat[k]...)
		a.tlat[k] = append(a.tlat[k], b.tlat[k]...)
	}
	a.all = append(a.all, b.all...)
	sort.Slice(a.all, func(i, j int) bool { return a.all[i].end < a.all[j].end })
	a.failed += b.failed
}

// count is how many reads succeeded.
func (a *readStats) count() int {
	n := len(a.all)
	for _, t := range a.tlat {
		n += len(t)
	}
	return n
}

// readLoop is one closed-loop client. With a tracer every other read is
// traced, and is also made in process, in the layer below the wire, so
// the wire's share can be taken out.
// A client given a speed track ticks it between reads.
func (p *primary) readLoop(rs *warehouse.RemoteSource, ops []readOp, start, stopAt time.Time, tr *tracer, sp *speedTrack, idBase int64) readStats {
	var st readStats
	for i := 0; time.Now().Before(stopAt); i++ {
		if sp != nil {
			sp.tick()
		}
		o := ops[i%len(ops)]
		id := idBase + int64(i)
		t0 := time.Now()
		var err error
		switch o.kind {
		case readObject:
			var obj *oem.Object
			if obj, err = rs.FetchObject(o.oid); err == nil && obj.OID != o.oid {
				err = fmt.Errorf("asked for %s, got %s", o.oid, obj.OID)
			}
		case readView:
			_, err = rs.FetchMembers(o.view)
		default:
			_, err = rs.FetchQuery(o.q)
		}
		t1 := time.Now()
		if err != nil {
			st.failed++
			continue
		}
		us := micros(t1.Sub(t0))
		if tr == nil || i%2 == 0 {
			st.lat[o.kind] = append(st.lat[o.kind], us)
			st.all = append(st.all, sample{end: t1.Sub(start).Nanoseconds(), us: us})
			continue
		}
		st.tlat[o.kind] = append(st.tlat[o.kind], us)
		tr.record("read."+readKindNames[o.kind], 0, id, t0, t1)
		p.readInProcess(o, tr, id)
	}
	return st
}

// readInProcess makes read o without the wire, as spans. Its results
// and errors are dropped: the same read over the wire was just checked.
func (p *primary) readInProcess(o readOp, tr *tracer, id int64) {
	switch o.kind {
	case readObject:
		s := tr.open("warehouse.fetch_object", 0, id)
		_, _ = p.src.FetchObject(o.oid)
		tr.close(s)
	case readView:
		s := tr.open("warehouse.fresh_members", 0, id)
		_, _ = p.w.FreshMembers(o.view)
		tr.close(s)
	default:
		text := o.q.String()
		s := tr.open("query.parse", 0, id)
		q, err := query.Parse(text)
		tr.close(s)
		if err != nil {
			return
		}
		s = tr.open("warehouse.fetch_query", 0, id)
		_, _ = p.src.FetchQuery(q)
		tr.close(s)
		t0 := time.Now()
		snap := p.src.Store.Snapshot()
		t1 := time.Now()
		_, _ = query.NewEvaluator(snap).Eval(q)
		t2 := time.Now()
		snap.Close()
		t3 := time.Now()
		tr.record("store.pin", 0, id, t0, t1)
		tr.record("query.eval", 0, id, t1, t2)
		tr.record("store.unpin", 0, id, t2, t3)
	}
}

// servePhase runs the writer and the clients together for seconds; the
// first client follows the host's speed.
func (p *primary) servePhase(clients []*warehouse.RemoteSource, reads [][]readOp, writes []op, seconds float64, tr *tracer, speed *speedRef) (readStats, []write, *speedTrack) {
	sp := speed.track()
	start := sp.start
	stopAt := start.Add(time.Duration(seconds * float64(time.Second)))
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		rs     readStats
		writer []write
	)
	wg.Add(1 + len(clients))
	go func() {
		defer wg.Done()
		writer = p.writeLoop(writes, serveWriteRate, seconds, tr, nil)
	}()
	for c := range clients {
		go func(c int) {
			defer wg.Done()
			var csp *speedTrack
			if c == 0 {
				csp = sp
			}
			st := p.readLoop(clients[c], reads[c], start, stopAt, tr, csp, int64(c+1)<<32)
			mu.Lock()
			rs.merge(st)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return rs, writer, sp
}

type serveSetup struct {
	p       *primary
	clients []*warehouse.RemoteSource
}

func (s *serveSetup) discard() {
	for _, c := range s.clients {
		c.Close()
	}
	s.p.close()
}

func runServe(cfg config) (*report, error) {
	tuples := cfg.tuples
	if tuples <= 0 {
		tuples = primaryTuples
	}
	rep := newReport()
	ss, setupS, setupRaw, err := medianSetup(cfg.setups, cfg.speed, func() (*serveSetup, error) {
		p, err := startPrimary(cfg, tuples)
		if err != nil {
			return nil, err
		}
		ss := &serveSetup{p: p}
		for c := 0; c < readClients; c++ {
			rs, err := warehouse.Dial("primary", p.addr, warehouse.NewTransport(0))
			if err != nil {
				ss.discard()
				return nil, err
			}
			ss.clients = append(ss.clients, rs)
		}
		return ss, nil
	}, (*serveSetup).discard)
	if err != nil {
		return nil, err
	}
	defer func() { ss.discard() }()
	p := ss.p
	rep.e2e["setup_s"] = setupS

	qs := readQueries()
	parsed := map[string]*query.Query{}
	for _, q := range qs {
		parsed[q] = query.MustParse(q)
	}
	reads := make([][]readOp, readClients)
	for c := range reads {
		reads[c] = readOps(cfg.seed*31+int64(c), tuples, parsed, qs)
	}
	writes, err := flipOps(p.src.Store, cfg.seed+2, tuples, int(cfg.seconds*serveWriteRate)+1)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	c0, s0 := p.counters(), p.schedCounters()
	mem := startMem()
	rs, ws, sp := p.servePhase(ss.clients, reads, writes, cfg.seconds, tr, cfg.speed)
	mallocs, bytes, gcFrac := mem.allocs()
	sf := sp.factor()
	all := latencies(rs.all)
	rep.attempted += rs.count() + rs.failed + len(ws)
	rep.failed += rs.failed + failedWrites(ws)
	// The ticks' time is not the clients'.
	p50, p99, tput := runStats(rs.all, cfg.seconds-sp.spent.Seconds())
	rep.e2e["op_p50_us"], rep.e2e["op_tput"] = median(sp.scale(rs.all)), tput/sf
	rep.layer["bench.op_p99_us"], rep.layer["bench.speed_factor"] = p99, sf
	rep.e2e["heap_mb"] = liveHeapMB()
	for k, name := range readKindNames {
		rep.notef("untraced %-6s reads: %6d, p50 %9.1fus p99 %9.1fus", name, len(rs.lat[k]), median(rs.lat[k]), quantile(rs.lat[k], 0.99))
	}
	rep.notef("%d reads (%d failed), %d writes; op samples (the p99 needs 1000): %d", rs.count(), rs.failed, len(ws), len(all))
	rep.notef("raw: setup %.3fs, read p50 %.1fus p99 %.1fus, %.1f reads/s; speed factor %.3f", setupRaw, p50, p99, tput, sf)

	if cfg.trace {
		lt := tr.summarize()
		l := rep.layer
		p.layerWriteMetrics(l, ws, lt, c0, s0)
		inproc := [...]string{"warehouse.fetch_object", "warehouse.fresh_members", "warehouse.fetch_query"}
		overhead := [...]string{"wire.object_overhead_us", "wire.view_overhead_us", "wire.query_overhead_us"}
		var layerSum, wireSum, tracedSum float64
		for k, name := range readKindNames {
			client := median(rs.tlat[k])
			l["read."+name+"_p50_us"] = client
			l["read."+name+"_p99_us"] = quantile(rs.tlat[k], 0.99)
			l[inproc[k]+"_us"] = lt.p50us(inproc[k])
			l[overhead[k]] = client - lt.p50us(inproc[k])
			n := float64(len(rs.lat[k]))
			layerSum += n * lt.p50us(inproc[k])
			wireSum += n * median(rs.lat[k])
			tracedSum += n * client
		}
		l["query.parse_us"] = lt.p50us("query.parse")
		l["query.eval_us"] = lt.p50us("query.eval")
		l["store.pin_ns"] = 1e3 * (lt.p50us("store.pin") + lt.p50us("store.unpin"))
		ops := float64(max(rs.count()+len(ws), 1))
		l["runtime.allocs_per_op"] = float64(mallocs) / ops
		l["runtime.alloc_bytes_per_op"] = float64(bytes) / ops
		l["runtime.gc_cpu_fraction"] = gcFrac
		l["bench.writer_late_ms"] = writerLateMs(ws)
		l["bench.op_samples"] = float64(len(all))
		if wireSum > 0 {
			// Per-kind medians weighted by the read mix, traced over
			// untraced.
			l["bench.trace_overhead_pct"] = pctOver(tracedSum, wireSum)
			// The layer below the wire's share of a read, weighted by
			// the read mix; the rest is the wire (wire.*_overhead_us).
			l["bench.path_coverage_pct"] = 100 * layerSum / wireSum
		}
		rep.notef("spans in %s", tracePath(cfg))
		if err := tr.write(tracePath(cfg), lt); err != nil {
			return nil, err
		}
	}

	// With the writer stopped, every view's members and every query's
	// answer over the wire equal from-scratch evaluation in process.
	for i, v := range warehouseViews {
		got, err := ss.clients[0].FetchMembers(v.name)
		if err != nil {
			rep.fail("members of %s: %v", v.name, err)
			continue
		}
		want, err := p.oracle(v.query)
		if err != nil {
			return nil, err
		}
		rep.checkMembers("view "+v.name+" over the wire vs recompute", got, cfg.corruptFirst(i, want))
	}
	for _, q := range qs {
		objs, err := ss.clients[len(ss.clients)-1].FetchQuery(parsed[q])
		if err != nil {
			rep.fail("query %q: %v", q, err)
			continue
		}
		want, err := p.oracle(q)
		if err != nil {
			return nil, err
		}
		rep.checkMembers(fmt.Sprintf("query %q over the wire vs in process", q), objectOIDs(objs), want)
	}

	// recovery_s: restart the serving tier over the live source — a new
	// warehouse re-materializes the views, a new server starts, and a
	// fresh client reads every view back.
	var times, raw []float64
	for i := 0; i < restarts; i++ {
		sf := cfg.speed.probe()
		t, err := restartServing(p, rep)
		if err != nil {
			return nil, err
		}
		raw = append(raw, t)
		times = append(times, t*sf)
	}
	rep.e2e["recovery_s"] = median(times)
	rep.notef("raw: recovery %.4fs", median(raw))
	return rep, nil
}

// restartServing times one serving-tier restart and checks the restarted
// tier answers the same members as the running one.
func restartServing(p *primary, rep *report) (float64, error) {
	t0 := time.Now()
	w, err := newWarehouse(p.src)
	if err != nil {
		return 0, err
	}
	srv, addr, done, err := serve(p.src, w)
	if err != nil {
		return 0, err
	}
	defer func() {
		srv.Close()
		<-done
	}()
	rs, err := warehouse.Dial("primary", addr, warehouse.NewTransport(0))
	if err != nil {
		return 0, err
	}
	defer rs.Close()
	got := make([][]oem.OID, len(warehouseViews))
	for i, v := range warehouseViews {
		if got[i], err = rs.FetchMembers(v.name); err != nil {
			rep.fail("members of %s after restart: %v", v.name, err)
		}
	}
	t := time.Since(t0).Seconds()
	for i, v := range warehouseViews {
		want, err := p.w.FreshMembers(v.name)
		if err != nil {
			return 0, err
		}
		rep.checkMembers("view "+v.name+" after restart", got[i], want)
	}
	return t, nil
}

func objectOIDs(objs []*oem.Object) []oem.OID {
	out := make([]oem.OID, len(objs))
	for i, o := range objs {
		out[i] = o.OID
	}
	return out
}

func failedWrites(ws []write) int {
	n := 0
	for _, w := range ws {
		if w.failed {
			n++
		}
	}
	return n
}
