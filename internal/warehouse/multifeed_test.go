package warehouse

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"gsv/internal/feed"
	"gsv/internal/oem"
)

// TestMultiFeedWireGolden pins the exact wire bytes of the multi-view
// subscribe protocol: the request frame, the hello, and both FeedFrame
// kinds. These encodings are a compatibility surface — replicas and
// primaries upgrade independently — so a marshalling change that alters
// them must show up here as a diff, not in production as a version skew.
func TestMultiFeedWireGolden(t *testing.T) {
	cases := []struct {
		name string
		v    any
		want string
	}{
		{
			"request",
			feedRequest{Views: []string{"HOT", "COLD"}, Froms: map[string]uint64{"HOT": 41}, Snapshot: true},
			`{"view":"","snapshot":true,"views":["HOT","COLD"],"froms":{"HOT":41}}`,
		},
		{
			"request-star",
			feedRequest{Views: []string{"*"}, Froms: map[string]uint64{}, Snapshot: true},
			`{"view":"","snapshot":true,"views":["*"]}`,
		},
		{
			"hello",
			feedHello{Seq: 310, Views: []FeedViewHello{
				{View: "HOT", Cursor: 41, Oldest: 12},
				{View: "COLD", Cursor: 7, Oldest: 1, Snapshot: &FeedSnapshot{Cursor: 7, Members: []oem.OID{"P1", "P2"}}},
			}},
			`{"cursor":0,"oldest":0,"seq":310,"views":[` +
				`{"view":"HOT","cursor":41,"oldest":12},` +
				`{"view":"COLD","cursor":7,"oldest":1,"snapshot":{"cursor":7,"members":["P1","P2"]}}]}`,
		},
		{
			"frame-event",
			FeedFrame{Event: &feed.Event{View: "HOT", Cursor: 42, Seq: 310, Kind: "modify", N1: "f0_3", Insert: []oem.OID{"t0_3"}}},
			`{"event":{"view":"HOT","cursor":42,"seq":310,"kind":"modify","n1":"f0_3","insert":["t0_3"]}}`,
		},
		{
			"frame-progress",
			FeedFrame{Progress: &FeedProgress{Seq: 311, Cursors: map[string]uint64{"HOT": 42}}},
			`{"progress":{"seq":311,"cursors":{"HOT":42}}}`,
		},
	}
	for _, tc := range cases {
		got, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s wire encoding changed:\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}

	// Decode direction: the golden frames must round-trip through the
	// server's frame decoder.
	var req feedRequest
	if err := decodeFrame([]byte(cases[0].want), &req); err != nil {
		t.Fatalf("decode request: %v", err)
	}
	if len(req.Views) != 2 || req.Views[0] != "HOT" || req.Froms["HOT"] != 41 || !req.Snapshot {
		t.Fatalf("request did not round-trip: %+v", req)
	}
	var fr FeedFrame
	if err := decodeFrame([]byte(cases[3].want), &fr); err != nil {
		t.Fatalf("decode event frame: %v", err)
	}
	if fr.Event == nil || fr.Progress != nil || fr.Event.Cursor != 42 || len(fr.Event.Insert) != 1 {
		t.Fatalf("event frame did not round-trip: %+v", fr)
	}
	if err := decodeFrame([]byte(cases[4].want), &fr); err != nil {
		t.Fatalf("decode progress frame: %v", err)
	}
	if fr.Progress == nil || fr.Progress.Seq != 311 || fr.Progress.Cursors["HOT"] != 42 {
		t.Fatalf("progress frame did not round-trip: %+v", fr)
	}
}

// oldFeedServer imitates a server that predates multi-view
// subscriptions: it reads the mode line and the request frame, ignores
// the views field entirely, and answers hello for the (empty)
// single-view name.
func oldFeedServer(t *testing.T, hello string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				if _, err := br.ReadString('\n'); err != nil { // mode line
					return
				}
				if _, err := br.ReadString('\n'); err != nil { // request frame
					return
				}
				_, _ = io.WriteString(conn, hello+"\n")
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestDialMultiFeedOldServer pins the version-mismatch contract: both
// shapes an old server can answer with — the unknown-view error for the
// empty view name, and (when a view literally named "" exists) a live
// single-view hello with no per-view state — surface as
// ErrUnsupportedRequest, so callers can tell a version skew from a real
// subscription error.
func TestDialMultiFeedOldServer(t *testing.T) {
	req := MultiFeedRequest{Views: []string{"*"}, Snapshot: true, IOTimeout: 2 * time.Second}

	errHello := fmt.Sprintf(`{"err":%q}`, feed.ErrUnknownView.Error()+": ")
	if _, err := DialMultiFeed(oldFeedServer(t, errHello), req); !errors.Is(err, ErrUnsupportedRequest) {
		t.Fatalf("old server error hello: err = %v, want ErrUnsupportedRequest", err)
	}

	liveHello := `{"cursor":5,"oldest":1}`
	if _, err := DialMultiFeed(oldFeedServer(t, liveHello), req); !errors.Is(err, ErrUnsupportedRequest) {
		t.Fatalf("old server live hello: err = %v, want ErrUnsupportedRequest", err)
	}

	// A genuine error (unknown view on a current server) must NOT be
	// flattened into the version mismatch.
	otherHello := fmt.Sprintf(`{"err":%q}`, feed.ErrUnknownView.Error()+": NOPE")
	if _, err := DialMultiFeed(oldFeedServer(t, otherHello), req); err == nil || errors.Is(err, ErrUnsupportedRequest) {
		t.Fatalf("real unknown-view error misclassified: %v", err)
	}
}
