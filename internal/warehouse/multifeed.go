package warehouse

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"gsv/internal/feed"
)

// This file implements the "subscribe" connection mode. A client sends
// one feedRequest naming the views to follow (["*"] = every view the hub
// knows) and gets every named view's events on one connection. The
// server answers one hello carrying per-view state, then streams
// FeedFrame envelopes — either one feed.Event or one FeedProgress
// heartbeat carrying the primary's base sequence number and per-view
// feed cursors. Progress frames are what let a replica measure its lag
// even when base updates are screened out of every view (no events flow,
// but Seq advances); see docs/REPLICA.md.
//
// Legacy single-view clients (a request with View but no Views) are
// served by the same handler: the request is translated to the
// multi-view form (feedRequest.normalize), and only the framing differs
// — the hello carries top-level view/cursor/oldest/snapshot and every
// later line is a bare feed.Event, with no progress frames.
//
// Version mismatch: an old server ignores the Views field and subscribes
// to the empty single-view name, which fails with the hub's unknown-view
// error for ""; DialMultiFeed maps exactly that shape to
// ErrUnsupportedRequest.

// defaultFeedProgressInterval paces progress frames on multi-view
// subscriptions.
const defaultFeedProgressInterval = 500 * time.Millisecond

// FeedProgress is the multi-view heartbeat frame: where the primary is.
type FeedProgress struct {
	// Seq is the primary's base-store sequence number at send time.
	Seq uint64 `json:"seq"`
	// Cursors maps each subscribed view to its current feed cursor. A
	// consumer that has applied every cursor here has fully caught up
	// with Seq, even if some base updates published no events.
	Cursors map[string]uint64 `json:"cursors,omitempty"`
}

// FeedFrame is one multi-view stream frame: exactly one field is set.
type FeedFrame struct {
	Event    *feed.Event   `json:"event,omitempty"`
	Progress *FeedProgress `json:"progress,omitempty"`
}

// FeedViewHello is one view's slice of a multi-view handshake.
type FeedViewHello struct {
	View string `json:"view"`
	// Cursor is the view's feed position at subscribe time.
	Cursor uint64 `json:"cursor"`
	// Oldest is the oldest cursor still in the replay ring.
	Oldest uint64 `json:"oldest"`
	// Snapshot is present when the client requested snapshot bootstrap
	// (no resume cursor for this view) or its resume cursor had expired.
	Snapshot *FeedSnapshot `json:"snapshot,omitempty"`
}

// handleSubscribe serves one subscribe-mode connection: decode and admit
// the request, subscribe to every requested view, answer one hello
// carrying per-view state, then interleave events from all views (with
// periodic progress frames, unless the client speaks the legacy
// single-view wire) on a single writer.
func (s *Server) handleSubscribe(conn net.Conn, br *bufio.Reader) {
	enc := json.NewEncoder(conn)
	fail := func(err error) {
		s.armWrite(conn)
		_ = enc.Encode(feedHello{Err: err.Error(), Expired: errors.Is(err, feed.ErrCursorExpired)})
	}
	s.mu.Lock()
	hub := s.Feed
	s.mu.Unlock()
	if hub == nil {
		fail(errors.New("warehouse: server has no feed"))
		return
	}
	sc := frameScanner(br)
	s.armRead(conn)
	if !sc.Scan() {
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	var req feedRequest
	if err := decodeFrame(sc.Bytes(), &req); err != nil {
		fail(err)
		return
	}
	if s.Admission != nil {
		if !s.Admission.AdmitStream() {
			fail(ErrOverloaded)
			return
		}
		defer s.Admission.ReleaseStream()
	}
	legacy := req.normalize()
	policy, err := feed.ParsePolicy(req.Policy)
	if err != nil {
		fail(err)
		return
	}
	views := req.Views
	if !legacy && len(views) == 1 && views[0] == "*" {
		views = hub.Views()
		sort.Strings(views)
	}
	var subs []*feed.Subscription
	closeAll := func() {
		for _, sub := range subs {
			sub.Close()
		}
	}
	hello := feedHello{Seq: s.Src.Store.Seq()}
	seen := make(map[string]bool, len(views))
	for _, view := range views {
		if seen[view] {
			continue
		}
		seen[view] = true
		o := feed.SubOptions{Buffer: req.Buffer, Policy: policy, HasPolicy: req.Policy != ""}
		from, resuming := req.Froms[view]
		if resuming {
			o.Resume, o.From, o.SnapshotOnExpire = true, from, req.Snapshot
		}
		sub, err := hub.Subscribe(view, o)
		if err != nil {
			closeAll()
			fail(err)
			return
		}
		subs = append(subs, sub)
		vh := FeedViewHello{View: view}
		vh.Cursor, _ = hub.Cursor(view)
		vh.Oldest = hub.OldestRetained(view)
		if snap := sub.Snapshot(); snap != nil {
			vh.Snapshot = &FeedSnapshot{Cursor: snap.Cursor, Members: snap.Members}
		} else if !resuming && req.Snapshot {
			// Snapshot bootstrap. The tail subscription is already
			// attached, so an event racing this snapshot re-announces
			// membership the snapshot reflects — an idempotent duplicate,
			// never a loss.
			snap, err := hub.Snapshot(view)
			if err != nil {
				closeAll()
				fail(err)
				return
			}
			vh.Snapshot = &FeedSnapshot{Cursor: snap.Cursor, Members: snap.Members}
		}
		hello.Views = append(hello.Views, vh)
	}
	s.mu.Lock()
	select {
	case <-s.done:
		s.mu.Unlock()
		closeAll()
		return
	default:
	}
	s.feedSubs = append(s.feedSubs, subs...)
	s.mu.Unlock()

	// The legacy wire has no envelopes: its hello carries the one view's
	// state at top level, and each later line is a bare event.
	s.armWrite(conn)
	if legacy {
		vh := hello.Views[0]
		err = enc.Encode(feedHello{View: vh.View, Cursor: vh.Cursor, Oldest: vh.Oldest, Snapshot: vh.Snapshot})
	} else {
		err = enc.Encode(hello)
	}
	if err != nil {
		closeAll()
		return
	}
	write := func(fr FeedFrame) error {
		s.armWrite(conn)
		if legacy {
			return enc.Encode(fr.Event)
		}
		return enc.Encode(fr)
	}

	// Tear every subscription down when the peer disconnects, even while
	// the writer is idle.
	go func() {
		_, _ = io.Copy(io.Discard, br)
		closeAll()
	}()

	frames := make(chan FeedFrame, 64)
	writerDone := make(chan struct{})
	var fwdWG sync.WaitGroup
	for _, sub := range subs {
		fwdWG.Add(1)
		go func(sub *feed.Subscription) {
			defer fwdWG.Done()
			for ev := range sub.Events() {
				ev := ev
				select {
				case frames <- FeedFrame{Event: &ev}:
				case <-writerDone:
					return
				}
			}
		}(sub)
	}
	// subsDone fires once every subscription's event channel has closed
	// (peer disconnect or server shutdown): the stream is over.
	subsDone := make(chan struct{})
	go func() {
		fwdWG.Wait()
		close(subsDone)
	}()
	var tickWG sync.WaitGroup
	if !legacy {
		interval := s.FeedProgressInterval
		if interval <= 0 {
			interval = defaultFeedProgressInterval
		}
		tickWG.Add(1)
		go func() {
			defer tickWG.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-writerDone:
					return
				case <-t.C:
					p := &FeedProgress{Seq: s.Src.Store.Seq(), Cursors: make(map[string]uint64, len(hello.Views))}
					for _, vh := range hello.Views {
						c, _ := hub.Cursor(vh.View)
						p.Cursors[vh.View] = c
					}
					select {
					case frames <- FeedFrame{Progress: p}:
					case <-writerDone:
						return
					}
				}
			}
		}()
	}
	defer func() {
		close(writerDone)
		closeAll()
		fwdWG.Wait()
		tickWG.Wait()
	}()
	for {
		select {
		case <-subsDone:
			// Every forwarder has exited; flush what they queued, then
			// end the stream.
			for {
				select {
				case fr := <-frames:
					if err := write(fr); err != nil {
						return
					}
				default:
					return
				}
			}
		case fr := <-frames:
			if err := write(fr); err != nil {
				return
			}
		}
	}
}

// MultiFeedRequest configures DialMultiFeed.
type MultiFeedRequest struct {
	// Views names the feeds to follow; ["*"] follows every view the
	// server's hub knows. Names must be non-empty.
	Views []string
	// Froms maps view name to the last cursor consumed; a view without
	// an entry tails from the current cursor.
	Froms map[string]uint64
	// Snapshot requests a full membership snapshot for every view
	// without a resume cursor, and snapshot fallback (instead of an
	// expired-cursor error) for every view whose cursor was evicted.
	Snapshot bool
	// Policy selects the server-side slow-consumer policy; empty means
	// the server default.
	Policy string
	// Buffer sizes the server-side subscriber channels; 0 means default.
	Buffer int
	// IOTimeout bounds the dial and handshake; 0 means no bound. It is
	// client-side state, never sent on the wire.
	IOTimeout time.Duration
	// ReadTimeout bounds each wait for the next frame. The server's
	// progress heartbeats (FeedProgressInterval, 500ms by default) make a
	// silent stream distinguishable from an idle one, so any value
	// comfortably above the heartbeat interval detects a dead peer. 0
	// means block forever.
	ReadTimeout time.Duration
}

// MultiFeedClient follows several views' changefeeds over one TCP
// connection.
type MultiFeedClient struct {
	// Seq was the primary's base sequence number at subscribe time.
	Seq uint64
	// Views holds the per-view handshake state, in server order.
	Views []FeedViewHello

	conn        net.Conn
	sc          *bufio.Scanner
	readTimeout time.Duration
}

// DialMultiFeed opens a subscribe-mode connection; it is the one feed
// client, whether it follows one view or many. Error mapping: an expired
// resume cursor (without Snapshot) wraps feed.ErrCursorExpired; a server
// at its stream cap wraps the retryable ErrOverloaded; a server that
// predates the multi-view protocol is surfaced as ErrUnsupportedRequest.
func DialMultiFeed(addr string, req MultiFeedRequest) (*MultiFeedClient, error) {
	d := net.Dialer{Timeout: req.IOTimeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if conn.LocalAddr().String() == conn.RemoteAddr().String() {
		// TCP simultaneous-open self-connection: dialing a loopback port
		// with no listener can land on an ephemeral source port equal to
		// the destination, yielding a socket connected to itself. It
		// echoes our own handshake back and squats on the server's port,
		// blocking a restart from rebinding — so close abortively:
		// a graceful close would park the port in TIME_WAIT, and a dialed
		// socket carries no SO_REUSEADDR, which blocks the rebind just as
		// effectively for a minute.
		abortConn(conn)
		return nil, fmt.Errorf("warehouse: feed dial %s: self-connection", addr)
	}
	if req.IOTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(req.IOTimeout))
	}
	if _, err := io.WriteString(conn, "subscribe\n"); err != nil {
		conn.Close()
		return nil, err
	}
	frame, err := json.Marshal(feedRequest{
		Views:    req.Views,
		Froms:    req.Froms,
		Snapshot: req.Snapshot,
		Policy:   req.Policy,
		Buffer:   req.Buffer,
	})
	if err != nil {
		conn.Close()
		return nil, err
	}
	if _, err := conn.Write(append(frame, '\n')); err != nil {
		conn.Close()
		return nil, err
	}
	sc := frameScanner(conn)
	if !sc.Scan() {
		conn.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("warehouse: feed handshake: %w", err)
		}
		return nil, errors.New("warehouse: feed handshake: connection closed")
	}
	var hello feedHello
	if err := decodeFrame(sc.Bytes(), &hello); err != nil {
		conn.Close()
		return nil, err
	}
	if hello.Err != "" {
		conn.Close()
		// An old server ignored the Views field entirely and tried the
		// empty single-view name: its unknown-view error names no view.
		if strings.TrimSpace(hello.Err) == strings.TrimSpace(feed.ErrUnknownView.Error()+":") {
			return nil, fmt.Errorf("%w: server predates multi-view subscriptions", ErrUnsupportedRequest)
		}
		if hello.Expired {
			return nil, &feedExpiredError{msg: "warehouse: " + hello.Err}
		}
		return nil, remoteError(hello.Err)
	}
	if len(hello.Views) == 0 {
		// An old server can also answer a live single-view hello for a
		// view literally named "" if one exists; either way the absence
		// of per-view state marks the protocol gap.
		conn.Close()
		return nil, fmt.Errorf("%w: server predates multi-view subscriptions", ErrUnsupportedRequest)
	}
	_ = conn.SetDeadline(time.Time{})
	return &MultiFeedClient{Seq: hello.Seq, Views: hello.Views, conn: conn, sc: sc, readTimeout: req.ReadTimeout}, nil
}

// Next blocks for the next frame: exactly one of the event and progress
// pointers is non-nil. It returns io.EOF when the server closes the
// stream.
func (mc *MultiFeedClient) Next() (FeedFrame, error) {
	if mc.readTimeout > 0 {
		_ = mc.conn.SetReadDeadline(time.Now().Add(mc.readTimeout))
	}
	for mc.sc.Scan() {
		line := mc.sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var fr FeedFrame
		if err := decodeFrame(line, &fr); err != nil {
			return FeedFrame{}, err
		}
		if fr.Event == nil && fr.Progress == nil {
			continue // unknown future frame kind; skip
		}
		return fr, nil
	}
	if err := mc.sc.Err(); err != nil {
		return FeedFrame{}, err
	}
	return FeedFrame{}, io.EOF
}

// Close disconnects the feed.
func (mc *MultiFeedClient) Close() { _ = mc.conn.Close() }
