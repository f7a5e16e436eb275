package warehouse

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"

	"gsv/internal/faults"
	"gsv/internal/feed"
	"gsv/internal/obs"
	"gsv/internal/query"
	"gsv/internal/store"
	"gsv/internal/workload"
)

// TestAdmissionSemaphore exercises the weighted admission semaphore's
// core contract: immediate grants under the cap, queue-full and
// queue-timeout sheds (both typed ErrOverloaded), FIFO grant order on
// release, and the over-cap escape hatch when the controller is idle.
func TestAdmissionSemaphore(t *testing.T) {
	ac := NewAdmissionController(AdmissionConfig{
		MaxInflight: 4, MaxQueue: 1, QueueWait: 20 * time.Millisecond,
	})

	// A weight above the cap is still admitted when nothing is in
	// flight — otherwise a heavy op could never run at all.
	if err := ac.Acquire(8, time.Time{}); err != nil {
		t.Fatalf("over-cap acquire on idle controller: %v", err)
	}
	ac.Release(8)

	if err := ac.Acquire(4, time.Time{}); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if got := ac.Inflight(); got != 4 {
		t.Fatalf("inflight = %d, want 4", got)
	}

	// The queue holds one waiter; it times out and sheds typed.
	timedOut := make(chan error, 1)
	go func() { timedOut <- ac.Acquire(1, time.Time{}) }()
	waitFor(t, func() bool { return ac.QueueLen() == 1 })

	// Queue full: the next arrival sheds immediately.
	if err := ac.Acquire(1, time.Time{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-full acquire = %v, want ErrOverloaded", err)
	}

	if err := <-timedOut; !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-timeout acquire = %v, want ErrOverloaded", err)
	}
	if ac.ShedReads.Value() != 2 {
		t.Fatalf("ShedReads = %d, want 2", ac.ShedReads.Value())
	}

	// FIFO: a queued waiter is granted on release, ahead of arrivals.
	granted := make(chan error, 1)
	go func() { granted <- ac.Acquire(2, time.Time{}) }()
	waitFor(t, func() bool { return ac.QueueLen() == 1 })
	ac.Release(4)
	if err := <-granted; err != nil {
		t.Fatalf("queued acquire after release: %v", err)
	}
	ac.Release(2)
	if got := ac.Inflight(); got != 0 {
		t.Fatalf("inflight after drain = %d, want 0", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 2s")
		}
		time.Sleep(time.Millisecond)
	}
}

// startOverloadServer serves a PERSON source with the given admission
// controller attached. configure hooks run before Serve starts, the only
// time server fields may be set.
func startOverloadServer(t *testing.T, ac *AdmissionController, configure ...func(*Server)) (*Server, string) {
	t.Helper()
	s := store.NewDefault()
	workload.PersonDB(s)
	src := NewSource("persons", s, "ROOT", Level2, NewTransport(0))
	src.DrainReports()
	server := NewServer(src)
	server.Admission = ac
	for _, f := range configure {
		f(server)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = server.Serve(ln) }()
	t.Cleanup(server.Close)
	return server, ln.Addr().String()
}

// rawQueryConn opens a query-mode connection and returns a send/recv
// helper operating on raw frames.
func rawQueryConn(t *testing.T, addr string) func(req map[string]any) netResponse {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write([]byte("query\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	return func(req map[string]any) netResponse {
		t.Helper()
		frame, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(append(frame, '\n')); err != nil {
			t.Fatal(err)
		}
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp netResponse
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
}

// TestConnCapRefusesAtAccept verifies MaxConns: connections beyond the
// cap are closed at accept, before any protocol exchange, and a slot
// freed by a disconnect is usable again.
func TestConnCapRefusesAtAccept(t *testing.T) {
	ac := NewAdmissionController(AdmissionConfig{MaxConns: 1})
	_, addr := startOverloadServer(t, ac)

	first, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if _, err := first.Write([]byte("query\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return ac.Conns() == 1 })

	second, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err) // TCP dial lands in the backlog; refusal comes as a close
	}
	defer second.Close()
	_ = second.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := second.Write([]byte("query\n")); err == nil {
		if _, err = bufio.NewReader(second).ReadByte(); err == nil {
			t.Fatal("connection over the cap was served")
		}
	}
	if ac.ShedConns.Value() == 0 {
		t.Fatal("ShedConns not counted")
	}

	first.Close()
	waitFor(t, func() bool { return ac.Conns() == 0 })
	send := rawQueryConn(t, addr)
	if resp := send(map[string]any{"op": "object", "oid": "P1"}); resp.Err != "" {
		t.Fatalf("freed slot refused: %s", resp.Err)
	}
}

// TestServeSurvivesTransientAcceptErrors is the accept-loop resilience
// regression: transient accept failures (injected via a flaky listener)
// must back off and retry, not kill Serve.
func TestServeSurvivesTransientAcceptErrors(t *testing.T) {
	s := store.NewDefault()
	workload.PersonDB(s)
	src := NewSource("persons", s, "ROOT", Level2, NewTransport(0))
	src.DrainReports()
	server := NewServer(src)
	ac := NewAdmissionController(AdmissionConfig{})
	server.Admission = ac

	in := faults.New(faults.Config{Seed: 7})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- server.Serve(in.WrapFlakyListener(ln)) }()
	t.Cleanup(server.Close)
	addr := ln.Addr().String()

	send := rawQueryConn(t, addr)
	if resp := send(map[string]any{"op": "object", "oid": "P1"}); resp.Err != "" {
		t.Fatalf("baseline query: %s", resp.Err)
	}

	// Every accept fails while the partition is open; the loop must
	// retry with backoff instead of returning. The loop is parked inside
	// Accept from before the partition opened, so dial once to kick it
	// into the failing regime.
	in.Partition(true)
	if kick, err := net.Dial("tcp", addr); err == nil {
		kick.Close()
	}
	waitFor(t, func() bool { return ac.AcceptRetries.Value() >= 2 })
	select {
	case err := <-served:
		t.Fatalf("Serve returned on a transient accept error: %v", err)
	default:
	}
	in.Partition(false)

	// The healed listener accepts and serves again.
	send2 := rawQueryConn(t, addr)
	if resp := send2(map[string]any{"op": "object", "oid": "P1"}); resp.Err != "" {
		t.Fatalf("query after heal: %s", resp.Err)
	}
}

// TestIdleTimeoutReapsConns is the connection-leak regression: a client
// that dials and goes silent must be reaped by the idle read deadline
// instead of holding a goroutine and conn slot forever.
func TestIdleTimeoutReapsConns(t *testing.T) {
	ac := NewAdmissionController(AdmissionConfig{})
	server, addr := startOverloadServer(t, ac, func(s *Server) { s.IdleTimeout = 50 * time.Millisecond })

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("query\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return server.ConnCount() == 1 })
	// Silence. The server must hang up on its own: the client sees EOF or
	// a reset well before its own read deadline.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("idle connection: read returned %v, want EOF or a reset from the server hanging up", err)
	}
	waitFor(t, func() bool { return server.ConnCount() == 0 })
	waitFor(t, func() bool { return ac.Conns() == 0 })
}

// TestBudgetExpiryShedding verifies deadline propagation server-side:
// pre-expired relative budgets, absolute deadlines in the past, and
// absolute deadlines inside the MinSlack margin are all shed with the
// typed retryable error instead of evaluated.
func TestBudgetExpiryShedding(t *testing.T) {
	ac := NewAdmissionController(AdmissionConfig{MinSlack: 50 * time.Millisecond})
	_, addr := startOverloadServer(t, ac)
	send := rawQueryConn(t, addr)

	cases := []map[string]any{
		{"op": "object", "oid": "P1", "budget_ms": -1},
		{"op": "object", "oid": "P1", "deadline_unix_ms": 5},
		// In the future, but inside the 50ms slack margin.
		{"op": "object", "oid": "P1", "deadline_unix_ms": time.Now().Add(10 * time.Millisecond).UnixMilli()},
	}
	for i, req := range cases {
		resp := send(req)
		if !strings.Contains(resp.Err, overloadMarker) {
			t.Fatalf("case %d: err = %q, want the typed overload marker", i, resp.Err)
		}
	}
	if ac.Expired.Value() != uint64(len(cases)) {
		t.Fatalf("Expired = %d, want %d", ac.Expired.Value(), len(cases))
	}
	// A healthy budget is served.
	resp := send(map[string]any{"op": "object", "oid": "P1", "budget_ms": 5000})
	if resp.Err != "" || !resp.Found {
		t.Fatalf("budgeted read = %+v", resp)
	}
}

// TestRemoteOverloadTypedError drives a shed end to end through
// RemoteSource: the wire error must unwrap to ErrOverloaded so callers
// can distinguish retryable pushback from failure.
func TestRemoteOverloadTypedError(t *testing.T) {
	ac := NewAdmissionController(AdmissionConfig{MaxInflight: 1})
	_, addr := startOverloadServer(t, ac)
	remote, err := Dial("persons", addr, NewTransport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	// Hold the only permit so the next read cannot be admitted; with no
	// queue configured it sheds immediately.
	if err := ac.Acquire(1, time.Time{}); err != nil {
		t.Fatal(err)
	}
	_, err = remote.FetchObject("P1")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("FetchObject under load = %v, want ErrOverloaded", err)
	}
	ac.Release(1)
	if _, err := remote.FetchObject("P1"); err != nil {
		t.Fatalf("FetchObject after release: %v", err)
	}
}

// TestDrainShedsReadsServesExempt pins the drain contract: while
// draining, data reads shed with the typed retryable error but health
// and topology ops still answer, and Drain itself completes once
// in-flight work finishes.
func TestDrainShedsReadsServesExempt(t *testing.T) {
	ac := NewAdmissionController(AdmissionConfig{})
	server, addr := startOverloadServer(t, ac)
	server.Obs = obs.NewRegistry()
	remote, err := Dial("persons", addr, NewTransport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if _, err := remote.FetchObject("P1"); err != nil {
		t.Fatal(err)
	}

	// A (simulated) in-flight op holds Drain open; while it waits, the
	// drain semantics must already be visible on live connections.
	server.inflight.Add(1)
	drained := make(chan error, 1)
	go func() { drained <- server.Drain(context.Background()) }()
	waitFor(t, func() bool { return server.Draining() })

	_, err = remote.FetchObject("P1")
	if !errors.Is(err, ErrOverloaded) || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("data read while draining = %v, want draining ErrOverloaded", err)
	}
	if _, err := remote.FetchStats(); err != nil {
		t.Fatalf("stats while draining: %v", err)
	}
	if ac.ShedReads.Value() == 0 {
		t.Fatal("draining shed not counted")
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned with work in flight: %v", err)
	default:
	}

	server.inflight.Add(-1)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if ac.Drains.Value() != 1 {
		t.Fatalf("Drains = %d, want 1", ac.Drains.Value())
	}
	// The listener is gone: new connections fail outright.
	if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		conn.Close()
		t.Fatal("dial succeeded after drain")
	}
}

// TestDrainTimeout verifies the operator escape hatch: a context
// deadline bounds how long Drain waits for stuck in-flight work.
func TestDrainTimeout(t *testing.T) {
	server, _ := startOverloadServer(t, nil)
	server.inflight.Add(1) // never released: a wedged op
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := server.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with wedged op = %v, want DeadlineExceeded", err)
	}
}

// TestFeedSubscribeStreamCap verifies MaxStreams: feed subscriptions
// beyond the cap are refused with the typed retryable error in the
// handshake, and a released slot admits again.
func TestFeedSubscribeStreamCap(t *testing.T) {
	s := store.NewDefault()
	workload.PersonDB(s)
	src := NewSource("persons", s, "ROOT", Level2, NewTransport(0))
	src.DrainReports()
	w := New(src)
	w.Feed = feed.NewHub(feed.Options{RingSize: 8})
	if _, err := w.DefineView("YP", query.MustParse("SELECT ROOT.professor X WHERE X.age <= 45"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	server := NewServer(src)
	server.Feed = w.Feed
	ac := NewAdmissionController(AdmissionConfig{MaxStreams: 1})
	server.Admission = ac
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = server.Serve(ln) }()
	t.Cleanup(server.Close)
	addr := ln.Addr().String()

	fc, err := DialFeed(addr, FeedRequest{View: "YP"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = DialFeed(addr, FeedRequest{View: "YP"})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second subscription = %v, want ErrOverloaded", err)
	}
	if ac.ShedStreams.Value() == 0 {
		t.Fatal("ShedStreams not counted")
	}
	fc.Close()
	waitFor(t, func() bool { return ac.Streams() == 0 })
	fc2, err := DialFeed(addr, FeedRequest{View: "YP"})
	if err != nil {
		t.Fatalf("subscription after release: %v", err)
	}
	fc2.Close()
}
