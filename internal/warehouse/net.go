package warehouse

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gsv/internal/feed"
	"gsv/internal/obs"
	"gsv/internal/oem"
	"gsv/internal/pathexpr"
	"gsv/internal/query"
)

// This file makes the Figure 6 architecture genuinely distributed: a
// Server exposes a Source over TCP with a line-delimited JSON protocol,
// and RemoteSource implements SourceAPI on the warehouse side, so the
// unchanged Warehouse/Integrator machinery maintains views across real
// sockets. The protocol has three connection modes, chosen by the first
// line a client sends:
//
//   - "query": request/response pairs, one JSON object per line each way.
//   - "reports": the server pushes update reports, one JSON object per
//     line; the client never writes.
//   - "subscribe": the client sends one feedRequest line naming the
//     views to follow (and optionally resume cursors); the server answers
//     a feedHello and then pushes one frame per line (multifeed.go,
//     docs/CHANGEFEED.md).
//
// Every response and report carries the source's current sequence number,
// which feeds the warehouse's interference detection.
//
// Failure handling (docs/WAREHOUSE.md "Failure model"): every query-mode
// frame is bounded by a read/write deadline, failed idempotent
// query-backs are retried under a RetryPolicy, and both connections
// redial automatically after a drop. A failed exchange closes the query
// connection instead of reusing it, so a timeout can never desync the
// encoder/decoder pair. Report-stream outages are detected as *gaps*
// (reports are broadcast only to connected streams) and surfaced through
// TakeGap, which the warehouse turns into view staleness.

// maxFrame bounds one protocol line; longer frames fail the connection
// (queries) or the decode (everything decodeFrame guards).
const maxFrame = 1 << 20

// errFrameTooLarge rejects frames longer than maxFrame.
var errFrameTooLarge = errors.New("warehouse: frame exceeds 1MiB limit")

// errClosed marks operations on a closed RemoteSource.
var errClosed = errors.New("warehouse: remote source closed")

// decodeFrame parses one line-delimited JSON frame into v. A frame is a
// single JSON object — malformed JSON, trailing data after the object,
// and oversized lines all error cleanly so a hostile peer can never
// panic the server.
func decodeFrame(line []byte, v any) error {
	if len(line) > maxFrame {
		return errFrameTooLarge
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("warehouse: bad frame: %w", err)
	}
	if dec.More() {
		return errors.New("warehouse: trailing data after frame")
	}
	return nil
}

// frameScanner wraps a reader in a line scanner bounded at maxFrame.
func frameScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 4096), maxFrame)
	return sc
}

// netRequest is one query-mode request.
type netRequest struct {
	Op    string        `json:"op"`
	OID   oem.OID       `json:"oid,omitempty"`
	Path  pathexpr.Path `json:"path,omitempty"`
	Depth int           `json:"depth,omitempty"`
	Query string        `json:"query,omitempty"`
	// View names the target view for the "members" op.
	View string `json:"view,omitempty"`
	// At pins the "queryat" op to a source sequence number: the answer
	// reflects exactly the updates with Seq <= At. Zero means current.
	At uint64 `json:"at,omitempty"`
	// BudgetMS is the client's remaining deadline budget in
	// milliseconds (deadline propagation, docs/WAREHOUSE.md "Overload &
	// graceful drain"). The server bounds its admission-queue wait by
	// it and sheds the request with ErrBudgetExpired once it elapses —
	// computing an answer the client stopped waiting for is pure waste.
	// Zero means no budget; negative means already expired on arrival.
	// Old servers ignore the field.
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// DeadlineUnixMS, when positive, is the absolute deadline as a Unix
	// timestamp in milliseconds, and takes precedence over BudgetMS.
	// An absolute deadline makes time burned *upstream* of the server —
	// in kernel socket queues and the scheduler — count against the
	// budget, so dead-on-arrival requests shed instead of wasting an
	// evaluation. Only stamp it when client and server clocks are
	// disciplined (same host or NTP); RemoteSource deliberately sticks
	// to the skew-immune relative BudgetMS. Old servers ignore it.
	DeadlineUnixMS int64 `json:"deadline_unix_ms,omitempty"`
}

// netResponse is one query-mode response.
type netResponse struct {
	Err     string        `json:"err,omitempty"`
	Found   bool          `json:"found,omitempty"`
	OID     oem.OID       `json:"oid,omitempty"`
	Objects []*oem.Object `json:"objects,omitempty"`
	Info    *PathInfo     `json:"info,omitempty"`
	Stats   *StatsPayload `json:"stats,omitempty"`
	// Trace answers the "trace" op: this node's recent propagation span
	// chains (see trace.go).
	Trace *TracePayload `json:"trace,omitempty"`
	// Members answers the "members" op: the named view's full current
	// membership (base OIDs, sorted).
	Members []oem.OID `json:"members,omitempty"`
	// Shard answers the "shard" op: which partition of a federation this
	// server carries and how healthy it is (see shard.go).
	Shard *ShardPayload `json:"shard,omitempty"`
	Seq   uint64        `json:"seq"`
}

// Server exposes one Source on a listener.
type Server struct {
	Src *Source
	// Feed, when non-nil, enables the "subscribe" connection mode over
	// this hub's changefeed. Set it before Serve; the serving
	// application (cmd/gsdbserve) points it at the hub of the warehouse
	// hosting its views.
	Feed *feed.Hub
	// Obs, when non-nil, enables the "stats" query-mode request: clients
	// receive a snapshot of this registry. Set it before Serve.
	Obs *obs.Registry
	// Traces, when non-nil, attaches the most recent maintenance traces
	// to stats responses.
	Traces *obs.TraceRing
	// Chains, when non-nil, enables the "trace" query-mode request:
	// clients receive this node's recent propagation span chains. Nil
	// servers answer with an unknown-op error so old binaries stay
	// protocol-compatible. Node names this server in the payload
	// (default "primary").
	Chains *obs.ChainRing
	Node   string
	// IOTimeout, when positive, bounds every frame write the server
	// performs (query responses, report pushes, feed events) so one
	// stalled peer cannot wedge a handler goroutine forever. Set it
	// before Serve.
	IOTimeout time.Duration
	// Members, when non-nil, answers the "members" query-mode op: the
	// full current membership of a named view. Serving applications wire
	// it to their warehouse's FreshMembers (primaries) or the replica's
	// view set (replicas); nil servers answer with an unknown-op error so
	// old binaries stay protocol-compatible.
	Members func(view string) ([]oem.OID, error)
	// ReadGate, when non-nil, runs before every query-mode op. A non-nil
	// error is returned to the client instead of the op's result —
	// replicas use it to enforce the bounded-staleness guarantee
	// (rejecting data reads while lag exceeds the bound) while letting
	// "stats" through so operators can inspect a lagging node.
	ReadGate func(op string) error
	// FeedProgressInterval paces the progress heartbeat frames on
	// multi-view subscriptions; 0 means the 500ms default.
	FeedProgressInterval time.Duration
	// ShardInfo, when non-nil, answers the "shard" query-mode op: the
	// per-source federation handshake describing which partition this
	// server carries and its health (see shard.go). Nil servers answer
	// with an unknown-op error so old binaries stay protocol-compatible.
	ShardInfo func() *ShardPayload
	// Admission, when non-nil, enables overload protection: the
	// connection cap, the stream cap and the weighted read semaphore
	// (see overload.go). Set it before Serve. Nil admits everything,
	// but Drain still sheds data reads while draining.
	Admission *AdmissionController
	// IdleTimeout, when positive, bounds how long a query-mode
	// connection may sit idle between frames (and every connection's
	// initial mode line): an idle or half-dead client is disconnected
	// instead of pinning a goroutine and conn entry forever. Report and
	// subscribe streams are exempt after their handshake — they are
	// server-push, so a silent client is their normal state.
	IdleTimeout time.Duration
	// DrainGrace is how long Drain keeps answering exempt ops (and
	// shedding data reads) before waiting out in-flight work — the
	// window in which load balancers observe the 503 /readyz and stop
	// routing here. Zero means no grace window.
	DrainGrace time.Duration

	// DroppedBroadcasts counts report frames discarded because a report
	// stream's buffer was full (a slow or dead consumer). The consumer
	// observes the loss as a sequence gap and resyncs.
	DroppedBroadcasts obs.Counter

	// draining flips on when Drain starts; data reads are shed with
	// ErrDraining from then on. inflight tracks query-mode ops between
	// admission and response write, so Drain can wait them out.
	draining atomic.Bool
	inflight atomic.Int64

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	streams  []chan []byte
	feedSubs []*feed.Subscription
	done     chan struct{}
}

// NewServer returns a server for src. Call Serve with a listener.
func NewServer(src *Source) *Server {
	return &Server{Src: src, conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
}

// Serve accepts connections until the listener closes. It returns the
// listener's final error (net.ErrClosed after Close).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	select {
	case <-s.done:
		// Close already ran (it found no listener to tear down): serving
		// now would squat on the address with nobody left to release it.
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	default:
	}
	s.ln = ln
	s.mu.Unlock()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			// Transient accept failures (fd exhaustion, ECONNABORTED)
			// must not kill the listener: back off with a doubling cap
			// and retry. Permanent errors (listener closed) still end
			// the loop.
			var ne net.Error
			if errors.As(err, &ne) && (ne.Timeout() || ne.Temporary()) {
				if s.Admission != nil {
					s.Admission.AcceptRetries.Inc()
				}
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				select {
				case <-s.done:
					return net.ErrClosed
				case <-time.After(backoff):
				}
				continue
			}
			return err
		}
		backoff = 0
		if s.Admission != nil && !s.Admission.AdmitConn() {
			// Over the connection cap: refuse at accept. An abortive
			// close is the cheapest possible signal for both sides.
			abortConn(conn)
			continue
		}
		s.mu.Lock()
		select {
		case <-s.done:
			s.mu.Unlock()
			if s.Admission != nil {
				s.Admission.ReleaseConn()
			}
			conn.Close()
			ln.Close()
			return net.ErrClosed
		default:
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Draining reports whether Drain has started: new data reads are being
// shed and /readyz should answer 503.
func (s *Server) Draining() bool { return s.draining.Load() }

// ConnCount returns the number of live tracked connections.
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Drain gracefully degrades and shuts the server down: it flips the
// draining flag (data reads shed with the retryable ErrDraining, exempt
// ops keep answering, /readyz composed with Draining turns 503), stops
// accepting by closing the listener, lingers DrainGrace so load
// balancers observe the flip, waits for in-flight ops to finish, then
// closes every connection — which is also how feed subscribers learn
// the node is gone (their redial machinery takes over). It returns
// ctx.Err when in-flight work outlives ctx (the server closes
// abortively in that case), nil on a clean drain.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.Swap(true) && s.Admission != nil {
		s.Admission.Drains.Inc()
	}
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	if s.DrainGrace > 0 {
		select {
		case <-time.After(s.DrainGrace):
		case <-ctx.Done():
		}
	}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			s.Close()
			return ctx.Err()
		case <-tick.C:
		}
	}
	s.Close()
	return nil
}

// Close stops accepting, disconnects every open connection (query,
// report and subscribe alike — a closed server must actually be gone, so
// restart drills exercise real reconnects), and tears down feed
// subscriptions.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.done:
		return
	default:
		close(s.done)
	}
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.conns = make(map[net.Conn]struct{})
	s.streams = nil
	for _, sub := range s.feedSubs {
		sub.Close()
	}
	s.feedSubs = nil
}

// Broadcast ships update reports to every connected report stream. The
// serving application calls it with the reports returned by the source's
// mutation methods (or DrainReports). A stream whose buffer is full has
// the frame dropped rather than blocking the broadcaster; the consumer
// detects the loss as a report-sequence gap and resyncs.
func (s *Server) Broadcast(reports []*UpdateReport) error {
	if len(reports) == 0 {
		return nil
	}
	payloads := make([][]byte, 0, len(reports))
	for _, r := range reports {
		data, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("warehouse: encoding report: %w", err)
		}
		payloads = append(payloads, data)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.done:
		return nil
	default:
	}
	for _, ch := range s.streams {
		for _, p := range payloads {
			select {
			case ch <- p:
			default:
				s.DroppedBroadcasts.Inc()
			}
		}
	}
	return nil
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		if s.Admission != nil {
			s.Admission.ReleaseConn()
		}
	}()
	// The mode line must arrive promptly on every connection: a client
	// that dials and says nothing would otherwise hold a goroutine and
	// a conn slot forever.
	s.armRead(conn)
	br := bufio.NewReader(conn)
	mode, err := br.ReadString('\n')
	if err != nil {
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	switch mode {
	case "query\n":
		s.handleQueries(conn, br)
	case "reports\n":
		s.handleReports(conn)
	case "subscribe\n":
		s.handleSubscribe(conn, br)
	}
}

// armWrite applies the server's write deadline to one frame write.
func (s *Server) armWrite(conn net.Conn) {
	if s.IOTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.IOTimeout))
	}
}

// armRead applies the server's idle read deadline ahead of one frame
// read.
func (s *Server) armRead(conn net.Conn) {
	if s.IdleTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
	}
}

func (s *Server) handleQueries(conn net.Conn, br *bufio.Reader) {
	enc := json.NewEncoder(conn)
	sc := frameScanner(br)
	for {
		s.armRead(conn)
		if !sc.Scan() {
			return
		}
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var req netRequest
		if err := decodeFrame(line, &req); err != nil {
			// A malformed frame gets an error response; the connection
			// survives because framing is still intact (line-delimited).
			s.armWrite(conn)
			if err := enc.Encode(netResponse{Err: err.Error(), Seq: s.Src.Store.Seq()}); err != nil {
				return
			}
			continue
		}
		s.inflight.Add(1)
		resp, release := s.serveOp(req)
		resp.Seq = s.Src.Store.Seq()
		s.armWrite(conn)
		err := enc.Encode(resp)
		// The admission permit spans the response write: shipping the
		// answer through a slow link is part of the request's cost.
		release()
		s.inflight.Add(-1)
		if err != nil {
			return
		}
	}
}

// serveOp runs one request through admission control and dispatch. The
// returned release function must be called after the response write
// (it returns the admission permit; a no-op when none was acquired).
func (s *Server) serveOp(req netRequest) (netResponse, func()) {
	noop := func() {}
	if ClassifyOp(req.Op) == ClassExempt {
		// Health and topology ops bypass admission entirely: they must
		// answer precisely when everything else is being shed.
		return s.dispatch(req), noop
	}
	ac := s.Admission
	if s.draining.Load() {
		if ac != nil {
			ac.ShedReads.Inc()
		}
		return netResponse{Err: ErrDraining.Error()}, noop
	}
	if req.BudgetMS < 0 {
		if ac != nil {
			ac.Expired.Inc()
		}
		return netResponse{Err: ErrBudgetExpired.Error()}, noop
	}
	if ac == nil {
		return s.dispatch(req), noop
	}
	var deadline time.Time
	switch {
	case req.DeadlineUnixMS > 0:
		deadline = time.UnixMilli(req.DeadlineUnixMS)
	case req.BudgetMS > 0:
		deadline = time.Now().Add(time.Duration(req.BudgetMS) * time.Millisecond)
	}
	// cutoff is the deadline minus the configured slack: a request past
	// it is dead on arrival or will be by the time its answer lands —
	// either way the budget burned upstream (an absolute deadline sees
	// kernel and scheduler queueing the server never would), so shed
	// before admission where it costs no queue slot.
	cutoff := deadline
	if !deadline.IsZero() {
		cutoff = deadline.Add(-ac.cfg.MinSlack)
	}
	if !cutoff.IsZero() && time.Now().After(cutoff) {
		ac.Expired.Inc()
		return netResponse{Err: ErrBudgetExpired.Error()}, noop
	}
	weight := OpWeight(req.Op)
	if err := ac.Acquire(weight, deadline); err != nil {
		return netResponse{Err: err.Error()}, noop
	}
	release := func() { ac.Release(weight) }
	if !cutoff.IsZero() && time.Now().After(cutoff) {
		// The remaining budget burned up in the admission queue: the
		// client gave up (or is about to), so don't compute a dead
		// answer.
		ac.Expired.Inc()
		return netResponse{Err: ErrBudgetExpired.Error()}, release
	}
	return s.dispatch(req), release
}

// dispatch executes one request against the source. The source-side
// wrapper methods are used directly, but their transport charges are the
// *source's* transport; the warehouse-side client charges its own, so the
// double-entry stays separated per site.
func (s *Server) dispatch(req netRequest) netResponse {
	if s.ReadGate != nil {
		if err := s.ReadGate(req.Op); err != nil {
			return netResponse{Err: err.Error()}
		}
	}
	switch req.Op {
	case "object":
		o, err := s.Src.FetchObject(req.OID)
		if err != nil {
			return netResponse{Err: err.Error()}
		}
		return netResponse{Found: true, Objects: []*oem.Object{o}}
	case "path":
		info, ok, err := s.Src.FetchPath(req.OID)
		if err != nil {
			return netResponse{Err: err.Error()}
		}
		return netResponse{Found: ok, Info: info}
	case "ancestor":
		y, ok, err := s.Src.FetchAncestor(req.OID, req.Path)
		if err != nil {
			return netResponse{Err: err.Error()}
		}
		return netResponse{Found: ok, OID: y}
	case "eval":
		objs, err := s.Src.FetchEval(req.OID, req.Path)
		if err != nil {
			return netResponse{Err: err.Error()}
		}
		return netResponse{Found: true, Objects: objs}
	case "subtree":
		objs, err := s.Src.FetchSubtree(req.OID, req.Depth)
		if err != nil {
			return netResponse{Err: err.Error()}
		}
		return netResponse{Found: true, Objects: objs}
	case "query", "queryat":
		// A "query" frame carries At == 0: the current version.
		q, err := query.Parse(req.Query)
		if err != nil {
			return netResponse{Err: err.Error()}
		}
		objs, err := s.Src.FetchQueryAt(q, req.At)
		if err != nil {
			return netResponse{Err: err.Error()}
		}
		return netResponse{Found: true, Objects: objs}
	case "stats":
		payload, errStr := s.statsPayload()
		if errStr != "" {
			return netResponse{Err: errStr}
		}
		return netResponse{Found: true, Stats: payload}
	case "trace":
		if s.Chains == nil {
			// Answer exactly like an old binary so clients map it to
			// ErrUnsupportedRequest.
			return netResponse{Err: fmt.Sprintf("unknown op %q", req.Op)}
		}
		return netResponse{Found: true, Trace: s.tracePayload(req.View)}
	case "members":
		if s.Members == nil {
			// Answer exactly like an old binary so clients map it to
			// ErrUnsupportedRequest.
			return netResponse{Err: fmt.Sprintf("unknown op %q", req.Op)}
		}
		members, err := s.Members(req.View)
		if err != nil {
			return netResponse{Err: err.Error()}
		}
		return netResponse{Found: true, Members: members}
	case "shard":
		if s.ShardInfo == nil {
			// Answer exactly like an old binary so clients map it to
			// ErrUnsupportedRequest.
			return netResponse{Err: fmt.Sprintf("unknown op %q", req.Op)}
		}
		return netResponse{Found: true, Shard: s.ShardInfo()}
	default:
		return netResponse{Err: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

func (s *Server) handleReports(conn net.Conn) {
	if s.Admission != nil {
		if !s.Admission.AdmitStream() {
			// Refused before the "ready" ack: the dialer's handshake
			// fails and its redial policy retries later.
			return
		}
		defer s.Admission.ReleaseStream()
	}
	ch := make(chan []byte, 256)
	s.mu.Lock()
	select {
	case <-s.done:
		s.mu.Unlock()
		return
	default:
	}
	s.streams = append(s.streams, ch)
	s.mu.Unlock()
	defer s.removeStream(ch)
	// Acknowledge registration so the dialer knows subsequent broadcasts
	// will reach this stream.
	s.armWrite(conn)
	if _, err := io.WriteString(conn, "ready\n"); err != nil {
		return
	}
	w := bufio.NewWriter(conn)
	for {
		select {
		case <-s.done:
			return
		case data := <-ch:
			s.armWrite(conn)
			if _, err := w.Write(append(data, '\n')); err != nil {
				return
			}
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// removeStream unregisters one report stream so broadcasts stop filling
// its buffer after the consumer is gone.
func (s *Server) removeStream(ch chan []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, c := range s.streams {
		if c == ch {
			s.streams = append(s.streams[:i], s.streams[i+1:]...)
			return
		}
	}
}

// feedRequest is the first (and only) frame a subscribe-mode client
// sends: which views to follow and how. It has two forms. The
// multi-view form sets Views (and Froms); the legacy single-view form
// sets View (and Resume/From), and the server translates it with
// normalize before serving it.
type feedRequest struct {
	// View names the feed to follow in the legacy form.
	View string `json:"view"`
	// Resume, in the legacy form, asks for replay of every event after
	// From.
	Resume bool `json:"resume,omitempty"`
	// From is the legacy form's last consumed cursor; meaningful only
	// with Resume.
	From uint64 `json:"from,omitempty"`
	// Snapshot requests a full-membership snapshot instead of an error
	// when a resume cursor has been evicted from the replay ring, and a
	// bootstrap snapshot for every view in Views without a Froms entry.
	// The legacy form only ever meant the former.
	Snapshot bool `json:"snapshot,omitempty"`
	// Policy selects the slow-consumer policy ("block", "drop-oldest",
	// "disconnect"); empty means the hub default.
	Policy string `json:"policy,omitempty"`
	// Buffer sizes the per-subscriber channel; 0 means the hub default.
	Buffer int `json:"buffer,omitempty"`
	// Views, when non-empty, selects the multi-view form: one connection
	// carries every named view's events plus periodic progress frames
	// (docs/REPLICA.md). ["*"] subscribes to every view the hub knows.
	// View/Resume/From are ignored. Old servers ignore this field and
	// answer a single-view hello for the empty View — clients detect
	// that as a version mismatch (ErrUnsupportedRequest).
	Views []string `json:"views,omitempty"`
	// Froms maps view name to the last cursor the client consumed; a
	// view listed in Views but absent here tails from the current cursor
	// (with a full snapshot when Snapshot is set).
	Froms map[string]uint64 `json:"froms,omitempty"`
}

// normalize rewrites a legacy single-view request in place into the
// multi-view form and reports whether it did; a multi-view request is
// left untouched. The translation keeps the legacy meaning: the resume
// cursor becomes the view's Froms entry, and Snapshot survives only
// with Resume, since a legacy snapshot without a resume cursor never
// returned a bootstrap snapshot.
func (r *feedRequest) normalize() (legacy bool) {
	if len(r.Views) > 0 {
		return false
	}
	r.Views, r.Froms = []string{r.View}, nil
	if r.Resume {
		r.Froms = map[string]uint64{r.View: r.From}
	}
	r.Snapshot = r.Snapshot && r.Resume
	return true
}

// FeedSnapshot carries a full view membership when a resume cursor has
// expired and the client asked for snapshot fallback.
type FeedSnapshot struct {
	// Cursor is the feed position the membership corresponds to; resume
	// from it after applying Members.
	Cursor uint64 `json:"cursor"`
	// Members is the complete view membership at Cursor.
	Members []oem.OID `json:"members"`
}

// feedHello is the server's first frame in subscribe mode. Either Err is
// set (and the connection closes), or the subscription is live.
type feedHello struct {
	Err string `json:"err,omitempty"`
	// Expired marks Err as a cursor-expiry (feed.ErrCursorExpired), so
	// clients can distinguish "resubscribe with snapshot" from fatal
	// errors.
	Expired bool `json:"expired,omitempty"`
	// View, Cursor, Oldest and Snapshot answer legacy single-view
	// requests only; multi-view hellos carry them per view in Views.
	View string `json:"view,omitempty"`
	// Cursor is the feed's current position at subscribe time.
	Cursor uint64 `json:"cursor"`
	// Oldest is the oldest cursor still in the replay ring.
	Oldest uint64 `json:"oldest"`
	// Snapshot is present when the resume cursor was evicted and the
	// client asked for snapshot fallback.
	Snapshot *FeedSnapshot `json:"snapshot,omitempty"`
	// Seq and Views answer multi-view requests: the primary's base
	// sequence number at subscribe time and one handshake entry per
	// subscribed view. Legacy hellos leave them empty.
	Seq   uint64          `json:"seq,omitempty"`
	Views []FeedViewHello `json:"views,omitempty"`
}

// feedExpiredError carries the server's expired-cursor message while
// keeping errors.Is(err, feed.ErrCursorExpired) true across the wire,
// without repeating the sentinel's text in the rendered message.
type feedExpiredError struct{ msg string }

func (e *feedExpiredError) Error() string { return e.msg }
func (e *feedExpiredError) Unwrap() error { return feed.ErrCursorExpired }

// DialOptions configures the fault tolerance of a RemoteSource.
type DialOptions struct {
	// IOTimeout bounds each frame write and each response read on the
	// query connection (and connection handshakes). Zero means no
	// deadline.
	IOTimeout time.Duration
	// Retry governs retries of failed idempotent query-backs. Every
	// SourceAPI call is a read, so a request whose response was lost can
	// be safely re-sent on a fresh connection. The zero policy means one
	// attempt (fail fast).
	Retry RetryPolicy
	// Redial governs re-establishing the report stream after a drop.
	// The zero policy is replaced by DefaultRedialPolicy; to disable
	// redial set MaxAttempts to a negative value.
	Redial RetryPolicy
	// Seed seeds the backoff jitter so tests replay identical schedules.
	// Zero uses a fixed default seed.
	Seed int64
}

// DefaultDialOptions is what plain Dial uses: bounded frames, retried
// query-backs, and automatic report-stream redial.
func DefaultDialOptions() DialOptions {
	return DialOptions{
		IOTimeout: 10 * time.Second,
		Retry:     DefaultRetryPolicy,
		Redial:    DefaultRedialPolicy,
	}
}

// WireStats counts the client side of the wire protocol's failure
// handling. The counters are atomic; RegisterObs exposes them.
type WireStats struct {
	// BadFrames counts malformed report frames skipped by the reader.
	BadFrames obs.Counter
	// QueryReconnects counts re-established query connections.
	QueryReconnects obs.Counter
	// ReportReconnects counts re-established report streams.
	ReportReconnects obs.Counter
	// Retries counts re-sent query-back requests.
	Retries obs.Counter
	// Gaps counts detected report-stream gaps (disconnects and sequence
	// discontinuities).
	Gaps obs.Counter

	mu            sync.Mutex
	lastDecodeErr string
}

// WireSnapshot is a plain-value copy of WireStats.
type WireSnapshot struct {
	BadFrames        uint64 `json:"badFrames,omitempty"`
	QueryReconnects  uint64 `json:"queryReconnects,omitempty"`
	ReportReconnects uint64 `json:"reportReconnects,omitempty"`
	Retries          uint64 `json:"retries,omitempty"`
	Gaps             uint64 `json:"gaps,omitempty"`
	LastDecodeErr    string `json:"lastDecodeErr,omitempty"`
}

func (ws *WireStats) noteDecodeErr(err error) {
	ws.BadFrames.Inc()
	ws.mu.Lock()
	ws.lastDecodeErr = err.Error()
	ws.mu.Unlock()
}

func (ws *WireStats) snapshot() WireSnapshot {
	ws.mu.Lock()
	last := ws.lastDecodeErr
	ws.mu.Unlock()
	return WireSnapshot{
		BadFrames:        ws.BadFrames.Value(),
		QueryReconnects:  ws.QueryReconnects.Value(),
		ReportReconnects: ws.ReportReconnects.Value(),
		Retries:          ws.Retries.Value(),
		Gaps:             ws.Gaps.Value(),
		LastDecodeErr:    last,
	}
}

// RemoteSource implements SourceAPI over two TCP connections to a Server.
// All traffic is charged to a local Transport with the *actual* payload
// byte counts — the simulated-transport numbers of the in-process mode can
// be validated against these.
//
// A RemoteSource survives connection failures: query-backs retry on a
// fresh connection under DialOptions.Retry, and a dropped report stream
// redials under DialOptions.Redial. Reports broadcast while the stream
// was down are gone (the server does not replay); the loss is recorded
// as a gap that TakeGap hands to the warehouse staleness machinery.
type RemoteSource struct {
	name string
	addr string
	tr   *Transport
	opts DialOptions

	closed  atomic.Bool
	closeCh chan struct{}

	rngMu sync.Mutex
	rng   *rand.Rand

	// qmu serializes request/response exchanges; cmu guards the
	// connection fields (Close must be able to reach them while an
	// exchange is blocked on I/O).
	qmu   sync.Mutex
	cmu   sync.Mutex
	conn  net.Conn
	enc   *json.Encoder
	dec   *json.Decoder
	rconn net.Conn

	rmu           sync.Mutex
	rcond         *sync.Cond
	reports       []*UpdateReport
	lastSeq       uint64
	lastReportSeq uint64
	gapPending    bool
	gapSeq        uint64
	tailSuspect   uint64
	streamClosed  bool

	wire WireStats
}

// Dial connects to a served source at addr with DefaultDialOptions. The
// name must match the served source's name (reports carry it).
func Dial(name, addr string, tr *Transport) (*RemoteSource, error) {
	return DialWithOptions(name, addr, tr, DefaultDialOptions())
}

// DialWithOptions connects with explicit fault-tolerance options. The
// initial dial itself is not retried — callers distinguish "never
// reachable" from "failed mid-stream".
func DialWithOptions(name, addr string, tr *Transport, opts DialOptions) (*RemoteSource, error) {
	if opts.Redial.MaxAttempts == 0 && opts.Redial.BaseDelay == 0 {
		opts.Redial = DefaultRedialPolicy
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	rs := &RemoteSource{
		name:    name,
		addr:    addr,
		tr:      tr,
		opts:    opts,
		closeCh: make(chan struct{}),
		rng:     rand.New(rand.NewSource(seed)),
	}
	rs.rcond = sync.NewCond(&rs.rmu)

	qconn, err := rs.dialMode("query")
	if err != nil {
		return nil, err
	}
	rs.conn = qconn
	rs.enc = json.NewEncoder(qconn)
	rs.dec = json.NewDecoder(bufio.NewReader(qconn))

	rbr, rconn, err := rs.dialReports()
	if err != nil {
		qconn.Close()
		return nil, err
	}
	rs.rconn = rconn
	go rs.superviseReports(rbr)
	return rs, nil
}

// dialMode opens one connection and sends the mode line.
func (rs *RemoteSource) dialMode(mode string) (net.Conn, error) {
	var d net.Dialer
	d.Timeout = rs.opts.IOTimeout
	conn, err := d.Dial("tcp", rs.addr)
	if err != nil {
		return nil, err
	}
	if conn.LocalAddr().String() == conn.RemoteAddr().String() {
		// TCP self-connection (loopback dial with no listener landing on
		// an ephemeral source port equal to the destination): the socket
		// echoes our own mode line back as a plausible handshake and
		// squats on the server's port so a restart cannot rebind it.
		// Abortive close — a TIME_WAIT here would hold the port just as
		// hostage, since dialed sockets carry no SO_REUSEADDR.
		abortConn(conn)
		return nil, fmt.Errorf("warehouse: dial %s: self-connection", rs.addr)
	}
	if rs.opts.IOTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(rs.opts.IOTimeout))
	}
	if _, err := io.WriteString(conn, mode+"\n"); err != nil {
		conn.Close()
		return nil, err
	}
	_ = conn.SetWriteDeadline(time.Time{})
	return conn, nil
}

// abortConn closes conn abortively (RST, no TIME_WAIT) when it is a TCP
// connection, gracefully otherwise.
func abortConn(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = conn.Close()
}

// dialReports opens a report-mode connection and waits for the server's
// registration ack: broadcasts sent after it returns are guaranteed to
// reach this stream.
func (rs *RemoteSource) dialReports() (*bufio.Reader, net.Conn, error) {
	conn, err := rs.dialMode("reports")
	if err != nil {
		return nil, nil, err
	}
	br := bufio.NewReader(conn)
	if rs.opts.IOTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(rs.opts.IOTimeout))
	}
	if _, err := br.ReadString('\n'); err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("warehouse: report stream handshake: %w", err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	return br, conn, nil
}

// Close disconnects both connections and wakes every waiter.
func (rs *RemoteSource) Close() {
	if rs.closed.Swap(true) {
		return
	}
	close(rs.closeCh)
	rs.cmu.Lock()
	if rs.conn != nil {
		_ = rs.conn.Close()
	}
	if rs.rconn != nil {
		_ = rs.rconn.Close()
	}
	rs.cmu.Unlock()
	rs.rmu.Lock()
	rs.streamClosed = true
	rs.rcond.Broadcast()
	rs.rmu.Unlock()
}

// jitter returns the seeded RNG for backoff jitter (callers must not
// retain it).
func (rs *RemoteSource) jitter() *rand.Rand {
	return rs.rng
}

// sleep waits d, interruptibly. It reports false when the source closed.
func (rs *RemoteSource) sleep(d time.Duration) bool {
	if d <= 0 {
		return !rs.closed.Load()
	}
	select {
	case <-rs.closeCh:
		return false
	case <-time.After(d):
		return true
	}
}

// superviseReports owns the report stream: it reads until the connection
// breaks, records the outage as a gap (broadcasts during it are lost),
// redials under the Redial policy, and repeats. It exits when the source
// closes or redial gives up; either way streamClosed wakes any waiter.
func (rs *RemoteSource) superviseReports(br *bufio.Reader) {
	defer func() {
		rs.rmu.Lock()
		rs.streamClosed = true
		rs.rcond.Broadcast()
		rs.rmu.Unlock()
	}()
	for {
		rs.readReportsFrom(br)
		if rs.closed.Load() {
			return
		}
		// The stream broke: whatever was broadcast from now until the
		// redial lands is lost. Conservatively that is a gap — the
		// warehouse decides what to do with it (staleness + repair).
		rs.rmu.Lock()
		rs.noteGapLocked()
		rs.rmu.Unlock()
		br = rs.redialReports()
		if br == nil {
			return
		}
		rs.wire.ReportReconnects.Inc()
	}
}

// redialReports re-establishes the report stream under the Redial
// policy. It returns nil when the policy is exhausted or the source
// closed.
func (rs *RemoteSource) redialReports() *bufio.Reader {
	p := rs.opts.Redial
	if p.MaxAttempts < 0 {
		return nil
	}
	for attempt := 1; attempt <= p.attempts(); attempt++ {
		rs.rngMu.Lock()
		d := p.backoff(attempt, rs.jitter())
		rs.rngMu.Unlock()
		if !rs.sleep(d) {
			return nil
		}
		br, conn, err := rs.dialReports()
		if err != nil {
			continue
		}
		rs.cmu.Lock()
		if rs.closed.Load() {
			rs.cmu.Unlock()
			conn.Close()
			return nil
		}
		rs.rconn = conn
		rs.cmu.Unlock()
		return br
	}
	return nil
}

// noteGapLocked records a report gap at the current position. Callers
// hold rmu.
func (rs *RemoteSource) noteGapLocked() {
	if !rs.gapPending {
		rs.gapPending = true
		rs.gapSeq = rs.lastReportSeq
		rs.wire.Gaps.Inc()
	}
}

// TakeGap returns and clears the report-gap flag: the last report
// sequence number known to be received before the gap, and whether a gap
// was pending. The warehouse calls it before routing reports and marks
// every view stale when it fires (the lost reports can never be
// replayed; only a resync repairs the views).
func (rs *RemoteSource) TakeGap() (uint64, bool) {
	rs.rmu.Lock()
	defer rs.rmu.Unlock()
	if !rs.gapPending {
		return 0, false
	}
	rs.gapPending = false
	return rs.gapSeq, true
}

// CheckTail flags a report gap when the stream has silently fallen
// behind the sequence a query response already proved the source
// reached. The in-stream discontinuity check cannot see a lost
// *trailing* report — no later report ever arrives to reveal the jump —
// but every query answer (including the federation's quiet-stream
// liveness probe) carries the server's true sequence, so a persistent
// lastSeq > lastReportSeq while the stream is idle means the tail was
// dropped, not delayed. One check of grace is given before flagging:
// reports travel on a separate, possibly slower connection, so the
// first observation may just be a frame still in flight.
func (rs *RemoteSource) CheckTail() {
	rs.rmu.Lock()
	defer rs.rmu.Unlock()
	if rs.lastReportSeq == 0 || rs.lastSeq <= rs.lastReportSeq {
		rs.tailSuspect = 0
		return
	}
	if rs.tailSuspect == rs.lastSeq {
		rs.noteGapLocked()
		// Jump the report cursor forward so the same lost tail is not
		// re-flagged after the resync repairs the views.
		rs.lastReportSeq = rs.lastSeq
		rs.tailSuspect = 0
		return
	}
	rs.tailSuspect = rs.lastSeq
}

// StreamHealthy reports whether the report stream is still being
// supervised (it is false once redial gave up or the source closed).
func (rs *RemoteSource) StreamHealthy() bool {
	rs.rmu.Lock()
	defer rs.rmu.Unlock()
	return !rs.streamClosed
}

// WireStats returns a snapshot of the client-side failure counters.
func (rs *RemoteSource) WireStats() WireSnapshot { return rs.wire.snapshot() }

// RegisterObs exposes the client-side wire counters on reg, labeled by
// source.
func (rs *RemoteSource) RegisterObs(reg *obs.Registry) {
	reg.Help("gsv_remote_bad_frames_total", "malformed report frames skipped by the reader")
	reg.Help("gsv_remote_reconnects_total", "re-established connections, by connection kind")
	reg.Help("gsv_remote_retries_total", "re-sent query-back requests")
	reg.Help("gsv_remote_gaps_total", "detected report-stream gaps")
	ls := obs.L("source", rs.name)
	reg.RegisterCounter("gsv_remote_bad_frames_total", &rs.wire.BadFrames, ls)
	reg.RegisterCounter("gsv_remote_reconnects_total", &rs.wire.QueryReconnects, ls, obs.L("conn", "query"))
	reg.RegisterCounter("gsv_remote_reconnects_total", &rs.wire.ReportReconnects, ls, obs.L("conn", "reports"))
	reg.RegisterCounter("gsv_remote_retries_total", &rs.wire.Retries, ls)
	reg.RegisterCounter("gsv_remote_gaps_total", &rs.wire.Gaps, ls)
}

// readReportsFrom consumes the report stream until it breaks. Malformed
// frames are counted (gsv_remote_bad_frames_total) and the last decode
// error retained, instead of being silently skipped.
func (rs *RemoteSource) readReportsFrom(r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), maxFrame)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rep UpdateReport
		if err := json.Unmarshal(line, &rep); err != nil {
			rs.wire.noteDecodeErr(err)
			continue
		}
		rs.rmu.Lock()
		// A sequence discontinuity means broadcasts were lost even
		// though the connection stayed up (e.g. the server dropped
		// frames for a slow stream).
		if rs.lastReportSeq > 0 && rep.Update.Seq > rs.lastReportSeq+1 {
			rs.noteGapLocked()
		}
		rs.reports = append(rs.reports, &rep)
		if rep.Update.Seq > rs.lastReportSeq {
			rs.lastReportSeq = rep.Update.Seq
		}
		if rep.Update.Seq > rs.lastSeq {
			rs.lastSeq = rep.Update.Seq
		}
		rs.tr.OneWay(len(line)+1, len(rep.Objects))
		rs.rcond.Broadcast()
		rs.rmu.Unlock()
	}
}

// ID implements SourceAPI.
func (rs *RemoteSource) ID() string { return rs.name }

// TransportRef implements SourceAPI.
func (rs *RemoteSource) TransportRef() *Transport { return rs.tr }

// LastKnownSeq implements SourceAPI.
func (rs *RemoteSource) LastKnownSeq() uint64 {
	rs.rmu.Lock()
	defer rs.rmu.Unlock()
	return rs.lastSeq
}

// DrainReports implements SourceAPI: reports received so far, in order.
func (rs *RemoteSource) DrainReports() []*UpdateReport {
	rs.rmu.Lock()
	defer rs.rmu.Unlock()
	out := rs.reports
	rs.reports = nil
	return out
}

// WaitReports blocks until at least n reports are buffered or the stream
// closes for good, then drains. Tests and pull-style integrators use it
// to synchronize with the asynchronous stream.
func (rs *RemoteSource) WaitReports(n int) []*UpdateReport {
	out, _ := rs.WaitReportsTimeout(n, 0)
	return out
}

// WaitReportsTimeout is WaitReports with a deadline: it returns whatever
// is buffered once n reports arrived, the stream closed, or timeout
// elapsed (0 means no timeout), and reports whether n were seen.
func (rs *RemoteSource) WaitReportsTimeout(n int, timeout time.Duration) ([]*UpdateReport, bool) {
	rs.rmu.Lock()
	defer rs.rmu.Unlock()
	timedOut := false
	if timeout > 0 {
		t := time.AfterFunc(timeout, func() {
			rs.rmu.Lock()
			timedOut = true
			rs.rcond.Broadcast()
			rs.rmu.Unlock()
		})
		defer t.Stop()
	}
	for len(rs.reports) < n && !rs.streamClosed && !timedOut {
		rs.rcond.Wait()
	}
	out := rs.reports
	rs.reports = nil
	return out, len(out) >= n
}

// roundTrip sends one request and decodes the response, charging actual
// bytes to the transport. Transient failures (timeouts, drops, resets)
// close the connection — a half-finished exchange must never leave the
// encoder/decoder desynced — and retry on a fresh one under the Retry
// policy.
func (rs *RemoteSource) roundTrip(req netRequest) (netResponse, error) {
	rs.qmu.Lock()
	defer rs.qmu.Unlock()
	// Deadline propagation: stamp this client's per-exchange budget into
	// the frame so the server can shed the request once nobody is left
	// waiting for the answer. Old servers ignore the field.
	if rs.opts.IOTimeout > 0 && req.BudgetMS == 0 {
		req.BudgetMS = rs.opts.IOTimeout.Milliseconds()
	}
	reqBytes, err := json.Marshal(req)
	if err != nil {
		return netResponse{}, err
	}
	p := rs.opts.Retry
	var lastErr error
	for attempt := 1; attempt <= p.attempts(); attempt++ {
		if attempt > 1 {
			rs.wire.Retries.Inc()
			rs.rngMu.Lock()
			d := p.backoff(attempt-1, rs.jitter())
			rs.rngMu.Unlock()
			if !rs.sleep(d) {
				break
			}
		}
		if rs.closed.Load() {
			break
		}
		resp, err := rs.exchange(req)
		if err == nil {
			respBytes, _ := json.Marshal(resp)
			rs.tr.RoundTrip(len(reqBytes)+1, len(respBytes)+1, len(resp.Objects))
			rs.rmu.Lock()
			if resp.Seq > rs.lastSeq {
				rs.lastSeq = resp.Seq
			}
			rs.rmu.Unlock()
			return resp, nil
		}
		lastErr = err
	}
	if rs.closed.Load() && lastErr == nil {
		lastErr = errClosed
	}
	if p.attempts() > 1 {
		return netResponse{}, fmt.Errorf("warehouse: %s failed after %d attempts: %w", req.Op, p.attempts(), lastErr)
	}
	return netResponse{}, lastErr
}

// exchange performs one request/response pair on the current query
// connection (redialing it if absent), bounded by IOTimeout per frame.
// Any failure closes the connection so the next attempt starts clean.
func (rs *RemoteSource) exchange(req netRequest) (netResponse, error) {
	rs.cmu.Lock()
	conn, enc, dec := rs.conn, rs.enc, rs.dec
	rs.cmu.Unlock()
	if conn == nil {
		var err error
		conn, enc, dec, err = rs.redialQuery()
		if err != nil {
			return netResponse{}, fmt.Errorf("warehouse: redialing for %s: %w", req.Op, err)
		}
	}
	if t := rs.opts.IOTimeout; t > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(t))
	}
	if err := enc.Encode(req); err != nil {
		rs.dropQueryConn(conn)
		return netResponse{}, fmt.Errorf("warehouse: sending %s: %w", req.Op, err)
	}
	if t := rs.opts.IOTimeout; t > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(t))
	}
	var resp netResponse
	if err := dec.Decode(&resp); err != nil {
		rs.dropQueryConn(conn)
		return netResponse{}, fmt.Errorf("warehouse: receiving %s: %w", req.Op, err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	_ = conn.SetWriteDeadline(time.Time{})
	return resp, nil
}

// redialQuery re-establishes the query connection and installs a fresh
// encoder/decoder pair.
func (rs *RemoteSource) redialQuery() (net.Conn, *json.Encoder, *json.Decoder, error) {
	conn, err := rs.dialMode("query")
	if err != nil {
		return nil, nil, nil, err
	}
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(bufio.NewReader(conn))
	rs.cmu.Lock()
	if rs.closed.Load() {
		rs.cmu.Unlock()
		conn.Close()
		return nil, nil, nil, errClosed
	}
	rs.conn, rs.enc, rs.dec = conn, enc, dec
	rs.cmu.Unlock()
	rs.wire.QueryReconnects.Inc()
	return conn, enc, dec, nil
}

// dropQueryConn discards a failed query connection so the next exchange
// redials instead of reusing a desynced stream.
func (rs *RemoteSource) dropQueryConn(c net.Conn) {
	rs.cmu.Lock()
	if rs.conn == c {
		rs.conn, rs.enc, rs.dec = nil, nil, nil
	}
	rs.cmu.Unlock()
	_ = c.Close()
}

// FetchObject implements SourceAPI.
func (rs *RemoteSource) FetchObject(oid oem.OID) (*oem.Object, error) {
	resp, err := rs.roundTrip(netRequest{Op: "object", OID: oid})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, remoteError(resp.Err)
	}
	if len(resp.Objects) == 0 {
		return nil, fmt.Errorf("warehouse: remote returned no object for %s", oid)
	}
	return resp.Objects[0], nil
}

// FetchPath implements SourceAPI.
func (rs *RemoteSource) FetchPath(n oem.OID) (*PathInfo, bool, error) {
	resp, err := rs.roundTrip(netRequest{Op: "path", OID: n})
	if err != nil {
		return nil, false, err
	}
	if resp.Err != "" {
		return nil, false, remoteError(resp.Err)
	}
	return resp.Info, resp.Found, nil
}

// FetchAncestor implements SourceAPI.
func (rs *RemoteSource) FetchAncestor(n oem.OID, p pathexpr.Path) (oem.OID, bool, error) {
	resp, err := rs.roundTrip(netRequest{Op: "ancestor", OID: n, Path: p})
	if err != nil {
		return oem.NoOID, false, err
	}
	if resp.Err != "" {
		return oem.NoOID, false, remoteError(resp.Err)
	}
	return resp.OID, resp.Found, nil
}

// FetchEval implements SourceAPI.
func (rs *RemoteSource) FetchEval(n oem.OID, p pathexpr.Path) ([]*oem.Object, error) {
	resp, err := rs.roundTrip(netRequest{Op: "eval", OID: n, Path: p})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, remoteError(resp.Err)
	}
	return resp.Objects, nil
}

// FetchSubtree implements SourceAPI.
func (rs *RemoteSource) FetchSubtree(n oem.OID, depth int) ([]*oem.Object, error) {
	resp, err := rs.roundTrip(netRequest{Op: "subtree", OID: n, Depth: depth})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, remoteError(resp.Err)
	}
	return resp.Objects, nil
}

// FetchQuery implements SourceAPI.
func (rs *RemoteSource) FetchQuery(q *query.Query) ([]*oem.Object, error) {
	resp, err := rs.roundTrip(netRequest{Op: "query", Query: q.String()})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, remoteError(resp.Err)
	}
	return resp.Objects, nil
}

// FetchQueryAt implements SeqQuerier over the wire: the "query" op's
// sequence-pinned variant ("queryat", carrying the At field). A server
// that predates the op answers unknown-op; the client then falls back to
// a plain current-state query, which keeps the caller's replay bound
// correct, merely conservative (see fetchQueryAt).
func (rs *RemoteSource) FetchQueryAt(q *query.Query, at uint64) ([]*oem.Object, error) {
	if at == 0 {
		return rs.FetchQuery(q)
	}
	resp, err := rs.roundTrip(netRequest{Op: "queryat", Query: q.String(), At: at})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		if strings.Contains(resp.Err, "unknown op") {
			return rs.FetchQuery(q)
		}
		return nil, remoteError(resp.Err)
	}
	return resp.Objects, nil
}

// FetchMembers asks the connected server for a view's full current
// membership (the "members" op). A server that predates the op answers
// with its unknown-op error, surfaced as ErrUnsupportedRequest.
func (rs *RemoteSource) FetchMembers(view string) ([]oem.OID, error) {
	resp, err := rs.roundTrip(netRequest{Op: "members", View: view})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		if strings.Contains(resp.Err, "unknown op") {
			return nil, fmt.Errorf("%w: %s", ErrUnsupportedRequest, resp.Err)
		}
		return nil, remoteError(resp.Err)
	}
	return resp.Members, nil
}

var _ SourceAPI = (*RemoteSource)(nil)
