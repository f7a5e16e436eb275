package main

import (
	"bufio"
	"context"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gsv/internal/feed"
	"gsv/internal/obs"
	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/replica"
	"gsv/internal/store"
	"gsv/internal/warehouse"
	"gsv/internal/workload"
)

// startServer serves the PERSON database on a loopback listener with a
// co-located warehouse maintaining the YP view into a changefeed hub —
// the gsdbserve -feed arrangement, in process.
func startServer(t *testing.T, ring int) (*warehouse.Source, *warehouse.Warehouse, *warehouse.Server, string) {
	t.Helper()
	s := store.NewDefault()
	workload.PersonDB(s)
	src := warehouse.NewSource("gsdbserve", s, "ROOT", warehouse.Level2, warehouse.NewTransport(0))
	src.DrainReports()
	lw := warehouse.New(src)
	lw.Feed = feed.NewHub(feed.Options{RingSize: ring})
	q := query.MustParse("SELECT ROOT.professor X WHERE X.age <= 45")
	if _, err := lw.DefineView("YP", q, warehouse.ViewConfig{Screening: true}); err != nil {
		t.Fatal(err)
	}
	server := warehouse.NewServer(src)
	server.Feed = lw.Feed
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = server.Serve(ln) }()
	t.Cleanup(server.Close)
	return src, lw, server, ln.Addr().String()
}

// toggle flips P1 in and out of YP n times: each call is one feed event.
// Reports are broadcast so warehouse-mode watchers see them too.
func toggle(t *testing.T, src *warehouse.Source, lw *warehouse.Warehouse, server *warehouse.Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		val := int64(60)
		if i%2 == 1 {
			val = 30
		}
		rs, err := src.Modify("A1", oem.Int(val))
		if err != nil {
			t.Fatal(err)
		}
		if err := lw.ProcessAll(rs); err != nil {
			t.Fatal(err)
		}
		if err := server.Broadcast(rs); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFollowFeedReplay(t *testing.T) {
	src, lw, server, addr := startServer(t, 1024)
	toggle(t, src, lw, server, 2)

	var out strings.Builder
	err := followFeed(&out, followConfig{
		addr: addr, view: "YP", from: 0, maxEvents: 2, dur: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"following YP at cursor 2 (oldest retained 1)",
		"cursor=1",
		"-[P1]",
		"cursor=2",
		"+[P1]",
		"followed 2 events on YP",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestFollowFeedTail(t *testing.T) {
	src, lw, server, addr := startServer(t, 1024)
	toggle(t, src, lw, server, 2) // history a tail must NOT see

	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- followFeed(&out, followConfig{
			addr: addr, view: "YP", from: -1, maxEvents: 1, dur: 5 * time.Second,
		})
	}()
	// Drive the next event only once the tail is attached.
	deadline := time.Now().Add(5 * time.Second)
	for lw.Feed.Subscribers("YP") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tail never attached")
		}
		time.Sleep(5 * time.Millisecond)
	}
	toggle(t, src, lw, server, 1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if strings.Contains(got, "cursor=1") || strings.Contains(got, "cursor=2") {
		t.Fatalf("tail replayed history:\n%s", got)
	}
	if !strings.Contains(got, "cursor=3") || !strings.Contains(got, "followed 1 events") {
		t.Fatalf("tail output:\n%s", got)
	}
}

func TestFollowFeedExpiredAndSnapshot(t *testing.T) {
	src, lw, server, addr := startServer(t, 2)
	toggle(t, src, lw, server, 8) // ring of 2 retains only cursors 7..8

	var out strings.Builder
	err := followFeed(&out, followConfig{addr: addr, view: "YP", from: 1, dur: time.Second})
	if err == nil || !strings.Contains(err.Error(), "-snapshot") {
		t.Fatalf("expired follow error = %v", err)
	}

	out.Reset()
	err = followFeed(&out, followConfig{
		addr: addr, view: "YP", from: 1, snapshot: true, maxEvents: 0, dur: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// After 8 toggles P1 is back in: snapshot carries the membership.
	if !strings.Contains(got, "snapshot@8 value(YP) = [P1]") {
		t.Fatalf("snapshot output:\n%s", got)
	}
}

// TestFollowFeedSurvivesServerRestart: a follow whose server dies must
// redial with its last cursor and pick up exactly the events it missed
// — the hub's replay ring covers the outage, so nothing is lost or
// duplicated.
func TestFollowFeedSurvivesServerRestart(t *testing.T) {
	src, lw, server, addr := startServer(t, 1024)

	done := make(chan error, 1)
	var mu sync.Mutex
	var out strings.Builder
	syncOut := func(f func()) {
		mu.Lock()
		defer mu.Unlock()
		f()
	}
	go func() {
		done <- followFeed(writerFunc(func(p []byte) (int, error) {
			syncOut(func() { out.Write(p) })
			return len(p), nil
		}), followConfig{
			addr: addr, view: "YP", from: -1, maxEvents: 4, dur: 15 * time.Second,
		})
	}()

	deadline := time.Now().Add(5 * time.Second)
	for lw.Feed.Subscribers("YP") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follow never attached")
		}
		time.Sleep(5 * time.Millisecond)
	}
	toggle(t, src, lw, server, 2) // cursors 1..2, delivered live

	// Kill the server. Maintenance continues at the warehouse while it is
	// down, so cursors 3..4 land in the hub's ring with no one connected.
	server.Close()
	toggle(t, src, lw, server, 2)

	// Restart on the same address, sharing the same source and hub.
	var ln net.Listener
	var err error
	for try := 0; ; try++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if try > 100 {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	server2 := warehouse.NewServer(src)
	server2.Feed = lw.Feed
	go func() { _ = server2.Serve(ln) }()
	t.Cleanup(server2.Close)

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var got string
	syncOut(func() { got = out.String() })
	for _, want := range []string{
		"reconnected to YP", "cursor=1", "cursor=2", "cursor=3", "cursor=4",
		"followed 4 events on YP",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	// The resume replays strictly after the last consumed cursor: each
	// event appears exactly once.
	for _, c := range []string{"cursor=1", "cursor=2", "cursor=3", "cursor=4"} {
		if strings.Count(got, c) != 1 {
			t.Fatalf("%s seen %d times:\n%s", c, strings.Count(got, c), got)
		}
	}
}

// TestFollowFeedSurvivesSilentPeer: a peer that completes the handshake
// and then never sends another byte (a hung server, a half-open
// connection) must not wedge the follow. The idle bound expires, and the
// follow redials with its last cursor.
func TestFollowFeedSurvivesSilentPeer(t *testing.T) {
	saved := feedIdleTimeout
	feedIdleTimeout = 100 * time.Millisecond
	t.Cleanup(func() { feedIdleTimeout = saved })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	requests := make(chan string, 16)
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn, silent bool) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				_, _ = br.ReadString('\n') // mode line
				req, _ := br.ReadString('\n')
				select {
				case requests <- strings.TrimSpace(req):
				default:
				}
				_, _ = io.WriteString(conn, `{"cursor":0,"oldest":0,"seq":9,"views":[{"view":"YP","cursor":3,"oldest":1}]}`+"\n")
				if !silent {
					_, _ = io.WriteString(conn, `{"event":{"view":"YP","cursor":4,"seq":10,"kind":"modify","n1":"A1","delete":["P1"]}}`+"\n")
				}
				_, _ = io.Copy(io.Discard, br) // hold the connection until the client leaves
			}(conn, i == 0)
		}
	}()

	var out strings.Builder
	err = followFeed(&out, followConfig{
		addr: ln.Addr().String(), view: "YP", from: -1, maxEvents: 1, dur: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"following YP at cursor 3 (oldest retained 1)",
		"reconnected to YP at cursor 3 (resuming after 3)",
		"cursor=4 seq=10 modify(A1) +[] -[P1]",
		"followed 1 events on YP",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	if first, redial := <-requests, <-requests; strings.Contains(first, "froms") || !strings.Contains(redial, `"froms":{"YP":3}`) {
		t.Fatalf("requests = %s then %s, want a tail then a resume after 3", first, redial)
	}
}

// writerFunc adapts a function to io.Writer for race-safe test capture.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestFollowFeedUnknownView(t *testing.T) {
	_, _, _, addr := startServer(t, 16)
	err := followFeed(&strings.Builder{}, followConfig{addr: addr, view: "NOPE", from: -1, dur: time.Second})
	if err == nil || !strings.Contains(err.Error(), "unknown view") {
		t.Fatalf("unknown view error = %v", err)
	}
}

func TestWatchViewOverTCP(t *testing.T) {
	src, lw, server, addr := startServer(t, 1024)

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		// Keep toggling until the watcher has seen enough reports; each
		// broadcast reaches report streams registered at that moment.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			val := int64(60)
			if i%2 == 1 {
				val = 30
			}
			rs, err := src.Modify("A1", oem.Int(val))
			if err != nil {
				return
			}
			_ = lw.ProcessAll(rs)
			_ = server.Broadcast(rs)
		}
	}()

	var out strings.Builder
	err := watchView(&out, watchConfig{
		addr: addr, query: "SELECT ROOT.professor X WHERE X.age <= 45",
		cache: warehouse.CacheNone, dur: 10 * time.Second, maxReports: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "value(WATCH) = [") {
		t.Fatalf("no membership output:\n%s", got)
	}
	if !strings.Contains(got, "view stats:") || !strings.Contains(got, "watched") {
		t.Fatalf("no summary output:\n%s", got)
	}
}

func TestStatsRendersViewTable(t *testing.T) {
	src, lw, server, addr := startServer(t, 1024)
	reg := obs.NewRegistry()
	// Enable observability after the view exists: EnableObs is wired at
	// DefineView time in gsdbserve, but registration is idempotent enough
	// for the test to re-register the existing view's instruments.
	lw.Feed.RegisterObs(reg)
	lw.EnableObs(reg)
	server.Obs = reg
	server.Traces = lw.Traces
	toggle(t, src, lw, server, 4)

	var out strings.Builder
	err := runStats(&out, statsConfig{addr: addr, dur: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"server stats @", "VIEW", "YP", "recent traces",
		// The MVCC STORE section (docs/MVCC.md): the warehouse store
		// exports gsv_store_* gauges.
		"STORE", "PINNED", "RECLAIMED", "primary"} {
		if !strings.Contains(got, want) {
			t.Fatalf("stats output missing %q:\n%s", want, got)
		}
	}
}

func TestStatsRendersReplicaSection(t *testing.T) {
	src, lw, server, addr := startServer(t, 1024)
	server.Members = lw.FreshMembers
	server.FeedProgressInterval = 20 * time.Millisecond
	toggle(t, src, lw, server, 2)

	rep, err := replica.New(replica.Options{Name: "watched", Primary: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if !rep.WaitCaughtUp(5 * time.Second) {
		t.Fatal("replica never caught up")
	}
	reg := obs.NewRegistry()
	rep.RegisterObs(reg)
	rsrv := rep.NewServer(reg)
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = rsrv.Serve(rln) }()
	defer rsrv.Close()

	var out strings.Builder
	if err := runStats(&out, statsConfig{addr: rln.Addr().String(), dur: time.Second}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"REPLICA", "watched", "LAG-SEQ", "APPLIED-SEQ"} {
		if !strings.Contains(got, want) {
			t.Fatalf("replica stats output missing %q:\n%s", want, got)
		}
	}
}

func TestStatsWatchRefreshes(t *testing.T) {
	src, lw, server, addr := startServer(t, 1024)
	reg := obs.NewRegistry()
	lw.Feed.RegisterObs(reg)
	lw.EnableObs(reg)
	server.Obs = reg
	server.Traces = lw.Traces
	toggle(t, src, lw, server, 2)

	var out strings.Builder
	err := runStats(&out, statsConfig{
		addr: addr, watch: true, every: time.Millisecond, dur: 5 * time.Second, maxRounds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "server stats @"); got != 3 {
		t.Fatalf("rendered %d rounds, want 3:\n%s", got, out.String())
	}
}

func TestStatsAgainstServerWithoutRegistry(t *testing.T) {
	// startServer wires no registry: the stats mode must report that
	// clearly rather than render an empty table.
	_, _, _, addr := startServer(t, 16)
	err := runStats(&strings.Builder{}, statsConfig{addr: addr, dur: time.Second})
	if err == nil || !strings.Contains(err.Error(), "no stats registry") {
		t.Fatalf("no-registry error = %v", err)
	}
}

func TestParseCache(t *testing.T) {
	for s, want := range map[string]warehouse.CacheMode{
		"none": warehouse.CacheNone, "Partial": warehouse.CachePartial, "FULL": warehouse.CacheFull,
	} {
		got, err := parseCache(s)
		if err != nil || got != want {
			t.Fatalf("parseCache(%q) = %v %v", s, got, err)
		}
	}
	if _, err := parseCache("bogus"); err == nil {
		t.Fatal("bogus cache mode parsed")
	}
}

func TestFollowFeedStateFileResume(t *testing.T) {
	src, lw, server, addr := startServer(t, 1024)
	toggle(t, src, lw, server, 2)
	state := t.TempDir() + "/yp.cursor"

	// First run consumes two events and acknowledges them in the state
	// file.
	var out strings.Builder
	err := followFeed(&out, followConfig{
		addr: addr, view: "YP", from: 0, maxEvents: 2, dur: 5 * time.Second,
		stateFile: state,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, ok, err := loadCursorState(state)
	if err != nil || !ok {
		t.Fatalf("state after first run: ok=%v err=%v", ok, err)
	}
	if st.View != "YP" || st.Cursor != 2 {
		t.Fatalf("state = %+v, want view YP cursor 2", st)
	}

	// Two more events land; a restarted watcher resumes from the state
	// file (from is -1: without the file it would tail and see nothing
	// until a new event).
	toggle(t, src, lw, server, 2)
	out.Reset()
	err = followFeed(&out, followConfig{
		addr: addr, view: "YP", from: -1, maxEvents: 2, dur: 5 * time.Second,
		stateFile: state,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"resuming YP after cursor 2",
		"cursor=3",
		"cursor=4",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("second run missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "cursor=1\n") || strings.Contains(got, "cursor=2\n") {
		t.Fatalf("second run re-printed acknowledged events:\n%s", got)
	}
	if st, _, _ := loadCursorState(state); st.Cursor != 4 {
		t.Fatalf("state after second run = %+v, want cursor 4", st)
	}

	// The state file is per-view: following another view with it is an
	// error rather than a silently wrong cursor.
	err = followFeed(&strings.Builder{}, followConfig{
		addr: addr, view: "OTHER", from: -1, dur: time.Second, stateFile: state,
	})
	if err == nil || !strings.Contains(err.Error(), "tracks view") {
		t.Fatalf("cross-view state reuse error = %v", err)
	}
}

// TestFollowFeedSurvivesDrainRestart: like the restart test above, but
// the primary leaves via graceful drain (SIGTERM path) instead of a
// hard close. The follow must ride out the drain — the feed connection
// ends when the drain completes — redial while the primary is gone, and
// resume exactly where it left off once a new primary binds.
func TestFollowFeedSurvivesDrainRestart(t *testing.T) {
	src, lw, server, addr := startServer(t, 1024)
	server.DrainGrace = 20 * time.Millisecond

	done := make(chan error, 1)
	var mu sync.Mutex
	var out strings.Builder
	syncOut := func(f func()) {
		mu.Lock()
		defer mu.Unlock()
		f()
	}
	go func() {
		done <- followFeed(writerFunc(func(p []byte) (int, error) {
			syncOut(func() { out.Write(p) })
			return len(p), nil
		}), followConfig{
			addr: addr, view: "YP", from: -1, maxEvents: 4, dur: 15 * time.Second,
		})
	}()

	deadline := time.Now().Add(5 * time.Second)
	for lw.Feed.Subscribers("YP") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follow never attached")
		}
		time.Sleep(5 * time.Millisecond)
	}
	toggle(t, src, lw, server, 2) // cursors 1..2, delivered live

	// Graceful drain: stops accepting, lets the in-flight feed stream
	// wind down, then closes. Maintenance continues while it is gone.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := server.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	toggle(t, src, lw, server, 2) // cursors 3..4 land in the ring unattended

	// A fresh primary binds the same address, sharing source and hub.
	var ln net.Listener
	var err error
	for try := 0; ; try++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if try > 100 {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	server2 := warehouse.NewServer(src)
	server2.Feed = lw.Feed
	go func() { _ = server2.Serve(ln) }()
	t.Cleanup(server2.Close)

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var got string
	syncOut(func() { got = out.String() })
	for _, want := range []string{
		"reconnected to YP", "cursor=1", "cursor=2", "cursor=3", "cursor=4",
		"followed 4 events on YP",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	for _, c := range []string{"cursor=1", "cursor=2", "cursor=3", "cursor=4"} {
		if strings.Count(got, c) != 1 {
			t.Fatalf("%s seen %d times:\n%s", c, strings.Count(got, c), got)
		}
	}
}
