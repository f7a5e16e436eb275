package replica_test

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"gsv/internal/faults"
	"gsv/internal/feed"
	"gsv/internal/obs"
	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/replica"
	"gsv/internal/store"
	"gsv/internal/warehouse"
	"gsv/internal/workload"
)

// primary bundles one in-process primary: source, warehouse with the YP
// and SENIOR views, and the TCP server fronting both.
type primary struct {
	src    *warehouse.Source
	w      *warehouse.Warehouse
	server *warehouse.Server
	addr   string
}

// startPrimary builds a PERSON primary serving query, members, stats and
// feed, with fast progress frames so lag tests converge quickly.
func startPrimary(t testing.TB, ring int) *primary {
	t.Helper()
	s := store.NewDefault()
	workload.PersonDB(s)
	src := warehouse.NewSource("persons", s, "ROOT", warehouse.Level2, warehouse.NewTransport(0))
	src.DrainReports()
	w := warehouse.New(src)
	w.Feed = feed.NewHub(feed.Options{RingSize: ring})
	if _, err := w.DefineView("YP", query.MustParse("SELECT ROOT.professor X WHERE X.age <= 45"), warehouse.ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.DefineView("SENIOR", query.MustParse("SELECT ROOT.professor X WHERE X.age >= 50"), warehouse.ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	p := &primary{src: src, w: w}
	p.server = newServer(t, p)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.addr = ln.Addr().String()
	go func() { _ = p.server.Serve(ln) }()
	t.Cleanup(func() { p.server.Close() })
	return p
}

// newServer builds a fresh Server over the primary's source and views
// (used for restart tests, which rebind on the same address).
func newServer(t testing.TB, p *primary) *warehouse.Server {
	t.Helper()
	srv := warehouse.NewServer(p.src)
	srv.Feed = p.w.Feed
	srv.Members = p.w.FreshMembers
	srv.FeedProgressInterval = 20 * time.Millisecond
	return srv
}

// rebind restarts the primary's server on its previous address.
func (p *primary) rebind(t testing.TB) {
	t.Helper()
	srv := newServer(t, p)
	var ln net.Listener
	var err error
	for i := 0; i < 200; i++ {
		ln, err = net.Listen("tcp", p.addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", p.addr, err)
	}
	p.server = srv
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close() })
}

// toggle flips P1 (professor, age 35) in and out of YP n times by
// modifying its age atom A1.
func (p *primary) toggle(t testing.TB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		val := int64(60) // leaves YP, enters SENIOR
		if i%2 == 1 {
			val = 30 // returns to YP
		}
		rs, err := p.src.Modify("A1", oem.Int(val))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.w.ProcessAll(rs); err != nil {
			t.Fatal(err)
		}
	}
}

// waitSynced blocks until the replica has applied everything the primary
// has done, then asserts every view's membership matches the primary's.
func waitSynced(t testing.TB, p *primary, r *replica.Replica) {
	t.Helper()
	if !r.WaitSeq(p.src.Store.Seq(), 5*time.Second) {
		seq, age := r.Lag()
		t.Fatalf("replica did not reach seq %d (lag %d seq, %s)", p.src.Store.Seq(), seq, age)
	}
	for _, view := range []string{"YP", "SENIOR"} {
		want, err := p.w.FreshMembers(view)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Members(view)
		if err != nil {
			t.Fatal(err)
		}
		if !oem.SameMembers(got, want) {
			t.Fatalf("view %s: replica %v, primary %v", view, got, want)
		}
	}
}

func TestReplicaSnapshotBootstrapAndFollow(t *testing.T) {
	p := startPrimary(t, 64)
	p.toggle(t, 3) // history before the replica exists

	r, err := replica.New(replica.Options{Name: "r1", Primary: p.addr})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.WaitCaughtUp(5 * time.Second) {
		t.Fatal("replica never caught up after snapshot bootstrap")
	}
	waitSynced(t, p, r)
	if got := r.Views(); len(got) != 2 || got[0] != "SENIOR" || got[1] != "YP" {
		t.Fatalf("Views() = %v", got)
	}

	// Live follow: every later update must flow through the feed.
	p.toggle(t, 4)
	waitSynced(t, p, r)
	if r.Applied("YP") == 0 {
		t.Fatal("no YP events applied")
	}
}

func TestReplicaServesWireProtocol(t *testing.T) {
	p := startPrimary(t, 64)
	r, err := replica.New(replica.Options{Name: "r1", Primary: p.addr})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitSynced(t, p, r)

	reg := obs.NewRegistry()
	r.RegisterObs(reg)
	rsrv := r.NewServer(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = rsrv.Serve(ln) }()
	defer rsrv.Close()

	rc, err := warehouse.Dial("r1", ln.Addr().String(), warehouse.NewTransport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// The members op answers from replicated views.
	want, err := p.w.FreshMembers("YP")
	if err != nil {
		t.Fatal(err)
	}
	got, err := rc.FetchMembers("YP")
	if err != nil {
		t.Fatal(err)
	}
	if !oem.SameMembers(got, want) {
		t.Fatalf("members over wire = %v, want %v", got, want)
	}
	if _, err := rc.FetchMembers("NOPE"); err == nil {
		t.Fatal("unknown view served")
	}

	// Delegates are fetchable like any warehouse object.
	if len(want) > 0 {
		d, err := rc.FetchObject(oem.OID("YP") + "." + want[0])
		if err != nil {
			t.Fatalf("fetching delegate: %v", err)
		}
		if d == nil {
			t.Fatal("delegate not found over wire")
		}
	}

	// The replica's own feed serves the republished events under primary
	// cursor numbering.
	p.toggle(t, 2)
	waitSynced(t, p, r)
	fc, err := warehouse.DialMultiFeed(ln.Addr().String(), warehouse.MultiFeedRequest{
		Views: []string{"YP"}, Froms: map[string]uint64{"YP": r.Applied("YP") - 2}, IOTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	var fr warehouse.FeedFrame
	for fr.Event == nil { // skip progress heartbeats
		if fr, err = fc.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if ev := fr.Event; ev.Cursor != r.Applied("YP")-1 {
		t.Fatalf("republished cursor = %d, want %d", ev.Cursor, r.Applied("YP")-1)
	}
}

func TestReplicaCheckpointBootstrap(t *testing.T) {
	dir := t.TempDir()
	s := store.NewDefault()
	workload.PersonDB(s)
	src := warehouse.NewSource("persons", s, "ROOT", warehouse.Level2, warehouse.NewTransport(0))
	src.DrainReports()
	w := warehouse.New(src)
	if _, err := w.EnableDurability(dir, warehouse.DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.DefineView("YP", query.MustParse("SELECT ROOT.professor X WHERE X.age <= 45"), warehouse.ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	p := &primary{src: src, w: w}
	p.server = newServer(t, p)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.addr = ln.Addr().String()
	go func() { _ = p.server.Serve(ln) }()
	t.Cleanup(func() { p.server.Close() })

	toggleOne := func(val int64) {
		rs, err := src.Modify("A1", oem.Int(val))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.ProcessAll(rs); err != nil {
			t.Fatal(err)
		}
	}
	toggleOne(60)
	toggleOne(30)
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	toggleOne(60) // one event past the checkpoint

	r, err := replica.New(replica.Options{Name: "r1", Primary: p.addr, BootstrapDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.WaitSeq(src.Store.Seq(), 5*time.Second) {
		t.Fatal("checkpoint-bootstrapped replica never caught up")
	}
	want, err := w.FreshMembers("YP")
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Members("YP")
	if err != nil {
		t.Fatal(err)
	}
	if !oem.SameMembers(got, want) {
		t.Fatalf("replica %v, primary %v", got, want)
	}
	// The post-checkpoint event must have arrived by cursor resume, not a
	// fresh snapshot: the checkpoint made the snapshot unnecessary.
	if n := r.Resyncs(); n != 0 {
		t.Fatalf("resyncs = %d, want 0 (cursor resume)", n)
	}
	if r.Applied("YP") != 3 {
		t.Fatalf("applied cursor = %d, want 3", r.Applied("YP"))
	}
}

func TestReplicaBootstrapDirWithoutCheckpoint(t *testing.T) {
	p := startPrimary(t, 64)
	// An empty bootstrap directory must fall back to snapshot bootstrap.
	r, err := replica.New(replica.Options{Name: "r1", Primary: p.addr, BootstrapDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitSynced(t, p, r)
}

func TestReplicaSurvivesPrimaryRestart(t *testing.T) {
	p := startPrimary(t, 64)
	r, err := replica.New(replica.Options{Name: "r1", Primary: p.addr, RedialBase: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitSynced(t, p, r)

	p.server.Close()
	p.toggle(t, 4) // maintenance continues while the server is down
	p.rebind(t)
	waitSynced(t, p, r)
	if r.FeedRedials() == 0 {
		t.Fatal("no feed redial counted across the restart")
	}
	// Within-ring resume: no snapshot reconcile should have been needed.
	if n := r.Resyncs(); n != 0 {
		t.Fatalf("resyncs = %d, want 0", n)
	}
}

func TestReplicaRingOverflowFallsBackToSnapshot(t *testing.T) {
	p := startPrimary(t, 4) // tiny replay ring
	r, err := replica.New(replica.Options{Name: "r1", Primary: p.addr, RedialBase: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitSynced(t, p, r)

	p.server.Close()
	p.toggle(t, 10) // overflow the ring while disconnected
	p.rebind(t)
	waitSynced(t, p, r)
	if r.Resyncs() == 0 {
		t.Fatal("expected a snapshot reconcile after ring overflow")
	}
}

func TestReplicaReadGate(t *testing.T) {
	p := startPrimary(t, 64)
	r, err := replica.New(replica.Options{
		Name: "r1", Primary: p.addr,
		MaxLagAge:  80 * time.Millisecond,
		RedialBase: 10 * time.Millisecond, RedialMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitSynced(t, p, r)
	if err := r.ReadGate("members"); err != nil {
		t.Fatalf("caught-up replica rejected a read: %v", err)
	}

	// Serve the replica so the rejection is visible over the wire too.
	rsrv := r.NewServer(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = rsrv.Serve(ln) }()
	defer rsrv.Close()

	p.server.Close()
	deadline := time.Now().Add(5 * time.Second)
	for r.ReadGate("members") == nil {
		if time.Now().After(deadline) {
			t.Fatal("gate never tripped after primary went away")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := r.ReadGate("stats"); err != nil {
		t.Fatalf("stats blocked by the gate: %v", err)
	}
	rc, err := warehouse.Dial("r1", ln.Addr().String(), warehouse.NewTransport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.FetchMembers("YP"); err == nil || !strings.Contains(err.Error(), "read rejected") {
		t.Fatalf("wire read while stale: %v", err)
	}

	// Recovery: the gate reopens once the primary is back and progress
	// frames flow again.
	p.rebind(t)
	deadline = time.Now().Add(5 * time.Second)
	for r.ReadGate("members") != nil {
		if time.Now().After(deadline) {
			t.Fatal("gate never reopened after primary returned")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := rc.FetchMembers("YP"); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
}

func TestReplicaValueReconcile(t *testing.T) {
	p := startPrimary(t, 64)
	r, err := replica.New(replica.Options{Name: "r1", Primary: p.addr})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitSynced(t, p, r)

	// A value-only modify that changes no view membership publishes no
	// feed event; Reconcile refreshes the delegates from fresh fetches.
	rs, err := p.src.Modify("A1", oem.Int(31)) // 35 -> 31: still in YP
	if err != nil {
		t.Fatal(err)
	}
	if err := p.w.ProcessAll(rs); err != nil {
		t.Fatal(err)
	}
	if err := r.Reconcile(); err != nil {
		t.Fatal(err)
	}
	waitSynced(t, p, r)
	d, err := r.Store().Get(oem.OID("YP") + ".P1")
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("P1 delegate missing after reconcile")
	}
}

func TestReplicaNewFailsWhenPrimaryDown(t *testing.T) {
	_, err := replica.New(replica.Options{Name: "r1", Primary: "127.0.0.1:1"})
	if err == nil {
		t.Fatal("New succeeded with no primary")
	}
}

func TestDialMultiFeedUnknownView(t *testing.T) {
	p := startPrimary(t, 64)
	_, err := warehouse.DialMultiFeed(p.addr, warehouse.MultiFeedRequest{Views: []string{"NOPE"}})
	if err == nil {
		t.Fatal("subscribing to an unknown view succeeded")
	}
	if errors.Is(err, warehouse.ErrUnsupportedRequest) {
		t.Fatalf("unknown view misread as version mismatch: %v", err)
	}
}

// TestReplicaWaitersWakeOnClose pins the wakeup semantics of the
// condition-based waits: a parked WaitSeq returns (false) promptly when
// the replica closes, without waiting out its timeout.
func TestReplicaWaitersWakeOnClose(t *testing.T) {
	p := startPrimary(t, 64)
	r, err := replica.New(replica.Options{Name: "r1", Primary: p.addr})
	if err != nil {
		t.Fatal(err)
	}
	waitSynced(t, p, r)

	done := make(chan bool, 1)
	go func() { done <- r.WaitSeq(p.src.Store.Seq()+1000, 30*time.Second) }()
	time.Sleep(20 * time.Millisecond) // let the waiter park
	r.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("WaitSeq reported success for a sequence that never happened")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitSeq still parked after Close")
	}
}

// TestReplicaDegradedPrimaryPartition drives the replica through a full
// network partition of the primary (every connection errors, feed
// included) while maintenance continues and the tiny replay ring
// overflows, then heals it: the redial loop must re-establish the feed
// and converge through a snapshot reconcile.
func TestReplicaDegradedPrimaryPartition(t *testing.T) {
	s := store.NewDefault()
	workload.PersonDB(s)
	src := warehouse.NewSource("persons", s, "ROOT", warehouse.Level2, warehouse.NewTransport(0))
	src.DrainReports()
	w := warehouse.New(src)
	w.Feed = feed.NewHub(feed.Options{RingSize: 4})
	for name, q := range map[string]string{
		"YP":     "SELECT ROOT.professor X WHERE X.age <= 45",
		"SENIOR": "SELECT ROOT.professor X WHERE X.age >= 50",
	} {
		if _, err := w.DefineView(name, query.MustParse(q), warehouse.ViewConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	inj := faults.New(faults.Config{Seed: 5})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := warehouse.NewServer(src)
	srv.Feed = w.Feed
	srv.Members = w.FreshMembers
	srv.FeedProgressInterval = 20 * time.Millisecond
	go func() { _ = srv.Serve(inj.WrapListener(ln)) }()
	t.Cleanup(srv.Close)
	p := &primary{src: src, w: w, server: srv, addr: ln.Addr().String()}

	r, err := replica.New(replica.Options{
		Name: "r1", Primary: p.addr, RedialBase: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitSynced(t, p, r)

	inj.Partition(true)
	p.toggle(t, 10) // overflow the 4-slot ring while unreachable
	if r.WaitSeq(p.src.Store.Seq(), 150*time.Millisecond) {
		t.Fatal("replica caught up through a partition")
	}
	inj.Partition(false)
	waitSynced(t, p, r)
	if r.Resyncs() == 0 {
		t.Fatal("expected a snapshot reconcile after the ring overflowed")
	}
}
