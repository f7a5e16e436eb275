package main

import (
	"fmt"
	"net"
	"time"

	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/warehouse"
)

const (
	// primaryTuples sizes the serving topology's fixture: 4 relations ×
	// 1000 tuples × 5 fields, about 24k objects.
	primaryTuples = 1000
	// progressInterval paces the multi-view feed's progress heartbeats,
	// which replica catch-up waits on.
	progressInterval = 20 * time.Millisecond
	// tickSlack is the wait for its next update's due time a writer needs
	// to run a speed tick: about a tick on a slow host.
	tickSlack = 3 * time.Millisecond
)

// primary is the gsdbserve -feed topology: a Level 2 source with a
// co-located warehouse maintaining the warehouseViews, served on
// loopback with members answered from the warehouse.
type primary struct {
	src  *warehouse.Source
	w    *warehouse.Warehouse
	srv  *warehouse.Server
	addr string
	done chan struct{}
}

// newWarehouse defines the screened views over src.
func newWarehouse(src *warehouse.Source) (*warehouse.Warehouse, error) {
	w := warehouse.New(src)
	for _, v := range warehouseViews {
		if _, err := w.DefineView(v.name, query.MustParse(v.query), warehouse.ViewConfig{Screening: true}); err != nil {
			return nil, fmt.Errorf("defining %s: %w", v.name, err)
		}
	}
	return w, nil
}

// serve starts a server for src answering members from w.
func serve(src *warehouse.Source, w *warehouse.Warehouse) (*warehouse.Server, string, chan struct{}, error) {
	srv := warehouse.NewServer(src)
	srv.Feed = w.Feed
	srv.Members = w.FreshMembers
	srv.FeedProgressInterval = progressInterval
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns net.ErrClosed after Close
	}()
	return srv, ln.Addr().String(), done, nil
}

func startPrimary(cfg config, tuples int) (*primary, error) {
	src := warehouse.NewSource("primary", buildFixture(tuples, cfg.seed), "REL", warehouse.Level2, warehouse.NewTransport(0))
	src.DrainReports()
	w, err := newWarehouse(src)
	if err != nil {
		return nil, err
	}
	srv, addr, done, err := serve(src, w)
	if err != nil {
		return nil, err
	}
	return &primary{src: src, w: w, srv: srv, addr: addr, done: done}, nil
}

func (p *primary) close() {
	p.srv.Close()
	<-p.done
}

// write is one writer update: when it was due, when the source applied
// it (report enrichment included), and when ProcessBatch returned.
type write struct {
	seq                       uint64
	due, start, applied, done time.Time
	failed, traced            bool
}

// writeLoop applies ops open-loop at rate per second until seconds have
// passed, recording every update's due time. With a tracer every other
// update is traced: the source's two steps — the store mutation and
// DrainReports — are made separately under a warehouse.source_apply
// span, and ProcessBatch gets a span of its own. A writer given a speed
// track ticks it while it waits for an update's due time, when there is
// time enough.
func (p *primary) writeLoop(ops []op, rate, seconds float64, tr *tracer, sp *speedTrack) []write {
	var out []write
	start := time.Now()
	for i, o := range ops {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if due.Sub(start).Seconds() >= seconds {
			break
		}
		if sp != nil && time.Until(due) > tickSlack {
			sp.tick()
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		id := int64(i)
		wr := write{due: due, start: time.Now(), traced: tr != nil && i%2 == 1}
		var reports []*warehouse.UpdateReport
		var err error
		if !wr.traced {
			reports, err = p.src.Modify(o.n1, o.val)
		} else {
			top := tr.open("warehouse.source_apply", 0, id)
			c := tr.open("store.commit", top.id, id)
			err = p.src.Store.Modify(o.n1, o.val)
			tr.close(c)
			d := tr.open("warehouse.drain_reports", top.id, id)
			reports = p.src.DrainReports()
			tr.close(d)
			tr.close(top)
		}
		wr.applied = time.Now()
		if err == nil {
			err = p.w.ProcessBatch(reports)
		}
		wr.done = time.Now()
		if wr.traced {
			tr.record("warehouse.process_batch", 0, id, wr.applied, wr.done)
		}
		if len(reports) > 0 {
			wr.seq = reports[len(reports)-1].Update.Seq
		}
		wr.failed = err != nil
		out = append(out, wr)
	}
	return out
}

// writerLateMs is the 99th-percentile lateness of the writer's start
// behind the due times, in ms.
func writerLateMs(ws []write) float64 { return quantile(lateness(ws), 0.99) }

// lateness lists how far each update's start fell behind its due time,
// in ms.
func lateness(ws []write) []float64 {
	late := make([]float64, len(ws))
	for i, w := range ws {
		late[i] = float64(w.start.Sub(w.due).Nanoseconds()) / 1e6
	}
	return late
}

// viewCounters sums the warehouse's per-view maintenance counters and
// feed cursors.
type viewCounters struct{ reports, localOnly, queryBacks, events uint64 }

func (p *primary) counters() viewCounters {
	var c viewCounters
	for _, v := range warehouseViews {
		wv, ok := p.w.View(v.name)
		if !ok {
			continue
		}
		c.reports += wv.Stats.Reports.Value()
		c.localOnly += wv.Stats.LocalOnly.Value()
		c.queryBacks += wv.Stats.QueryBacks.Value()
		cur, _ := p.w.Feed.Cursor(v.name)
		c.events += cur
	}
	return c
}

// layerWriteMetrics fills the write-path layer metrics from a traced
// run's writes; c0 and sched0 are the counters read before it.
func (p *primary) layerWriteMetrics(l map[string]float64, ws []write, lt layerTimes, c0 viewCounters, sched0 [4]float64) {
	c1 := p.counters()
	n := float64(max(len(ws), 1))
	var pb []float64
	for _, w := range ws {
		if w.traced {
			pb = append(pb, micros(w.done.Sub(w.applied)))
		}
	}
	l["store.commit_us"] = lt.p50us("store.commit")
	l["warehouse.source_apply_us"] = lt.p50us("warehouse.source_apply")
	l["warehouse.process_batch_p50_us"] = median(pb)
	l["warehouse.process_batch_p99_us"] = quantile(pb, 0.99)
	l["warehouse.query_backs_per_update"] = float64(c1.queryBacks-c0.queryBacks) / n
	if r := c1.reports - c0.reports; r > 0 {
		l["warehouse.local_only_ratio"] = float64(c1.localOnly-c0.localOnly) / float64(r)
	}
	l["feed.events_per_update"] = float64(c1.events-c0.events) / n
	s1 := p.schedCounters()
	l["core.batch_us"] = meanDelta(s1[1]-sched0[1], uint64(s1[0]-sched0[0])) * 1e6
	routed, screened := s1[2]-sched0[2], s1[3]-sched0[3]
	l["core.pairs_routed_per_update"] = routed / n
	if routed+screened > 0 {
		l["core.screened_ratio"] = screened / (routed + screened)
	}
}

// schedCounters reads the warehouse scheduler's batch count, batch
// seconds, routed and screened pairs.
func (p *primary) schedCounters() [4]float64 {
	m := &p.w.Sched.Metrics
	return [4]float64{float64(m.BatchLatency.Count()), m.BatchLatency.Sum(),
		float64(m.RoutedPairs.Value()), float64(m.ScreenedPairs.Value())}
}

// oracle evaluates a view query from scratch against the source's
// current state.
func (p *primary) oracle(q string) ([]oem.OID, error) {
	parsed, err := query.Parse(q)
	if err != nil {
		return nil, err
	}
	snap := p.src.Store.Snapshot()
	defer snap.Close()
	return query.NewEvaluator(snap).Eval(parsed)
}
