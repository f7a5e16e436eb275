package warehouse

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"gsv/internal/feed"
	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/store"
	"gsv/internal/workload"
)

// drainNow empties everything a subscription has buffered right now.
// Publishes are synchronous, so after ProcessAll returns every event it
// caused is already in the channel.
func drainNow(sub *feed.Subscription) []feed.Event {
	var out []feed.Event
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return out
			}
			out = append(out, ev)
		default:
			return out
		}
	}
}

// drainAll reads a closed subscription to exhaustion.
func drainAll(sub *feed.Subscription) []feed.Event {
	var out []feed.Event
	for ev := range sub.Events() {
		out = append(out, ev)
	}
	return out
}

func sameEvent(a, b feed.Event) bool {
	return a.View == b.View && a.Cursor == b.Cursor && a.Seq == b.Seq &&
		a.Kind == b.Kind && a.N1 == b.N1 && a.N2 == b.N2 &&
		oem.SameMembers(a.Insert, b.Insert) && oem.SameMembers(a.Delete, b.Delete)
}

// applyEvents replays a delta sequence over a starting membership.
func applyEvents(members []oem.OID, evs []feed.Event) []oem.OID {
	set := make(map[oem.OID]bool)
	for _, m := range members {
		set[m] = true
	}
	for _, ev := range evs {
		for _, y := range ev.Insert {
			set[y] = true
		}
		for _, y := range ev.Delete {
			delete(set, y)
		}
	}
	out := make([]oem.OID, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	return oem.SortOIDs(out)
}

// TestFeedResumeMatchesContinuous is the changefeed acceptance test: a
// subscriber that connects, disconnects mid-stream, and resumes from its
// last cursor must observe exactly the same delta sequence as an
// always-connected subscriber — no gaps, no duplicates — across ≥100
// deterministic updates driven through a warehouse-maintained view, for
// every cache mode.
func TestFeedResumeMatchesContinuous(t *testing.T) {
	for _, cache := range []CacheMode{CacheNone, CachePartial, CacheFull} {
		t.Run(cache.String(), func(t *testing.T) {
			src, w, v := fixture(t, Level2, ViewConfig{Cache: cache})

			cont, err := w.Feed.Subscribe("YP", feed.SubOptions{Buffer: 4096})
			if err != nil {
				t.Fatal(err)
			}
			inter, err := w.Feed.Subscribe("YP", feed.SubOptions{Buffer: 4096})
			if err != nil {
				t.Fatal(err)
			}

			st := workload.NewStream(src.Store, workload.StreamConfig{Seed: 7, ValueRange: 90},
				[]oem.OID{"P1", "P2"}, []oem.OID{"A1", "A4"})
			driven := 0
			drive := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					if _, ok := st.Next(); !ok {
						t.Fatal("update stream dried up")
					}
					driven++
					if err := w.ProcessAll(src.DrainReports()); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Phase 1: both subscribers connected.
			drive(50)
			part1 := drainNow(inter)
			var last uint64
			if len(part1) > 0 {
				last = part1[len(part1)-1].Cursor
			}
			inter.Close()

			// Phase 2: the interrupted subscriber is away.
			drive(50)

			// Phase 3: resume from the last consumed cursor, keep driving.
			resumed, err := w.Feed.Subscribe("YP", feed.SubOptions{Resume: true, From: last, Buffer: 4096})
			if err != nil {
				t.Fatal(err)
			}
			drive(20)
			if driven < 100 {
				t.Fatalf("drove only %d updates", driven)
			}
			part2 := drainNow(resumed)
			resumed.Close()
			cont.Close()
			contEvs := drainAll(cont)

			if len(contEvs) == 0 {
				t.Fatal("stream produced no view deltas — fixture too static")
			}
			got := append(append([]feed.Event(nil), part1...), part2...)
			if len(got) != len(contEvs) {
				t.Fatalf("interrupted subscriber saw %d events, continuous saw %d", len(got), len(contEvs))
			}
			for i := range got {
				if !sameEvent(got[i], contEvs[i]) {
					t.Fatalf("event %d: interrupted %+v != continuous %+v", i, got[i], contEvs[i])
				}
			}
			// Cursors must be exactly 1..N: no gaps, no duplicates.
			for i, ev := range contEvs {
				if ev.Cursor != uint64(i+1) {
					t.Fatalf("cursor %d at position %d", ev.Cursor, i)
				}
			}
			// Replaying the deltas over the initial membership must land on
			// the view's current membership.
			members, err := v.MV.Members()
			if err != nil {
				t.Fatal(err)
			}
			if got := applyEvents([]oem.OID{"P1"}, contEvs); !oem.SameMembers(got, members) {
				t.Fatalf("replayed membership %v != view %v", got, members)
			}
		})
	}
}

// TestFeedClusterViewsPublish verifies cluster member views publish their
// deltas under each reporting level, including the Level-1 recheck path.
func TestFeedClusterViewsPublish(t *testing.T) {
	for _, level := range []ReportLevel{Level1, Level2, Level3} {
		t.Run(level.String(), func(t *testing.T) {
			src, w, wc := newWCluster(t, level)
			young, err := w.Feed.Subscribe("YOUNG", feed.SubOptions{Buffer: 64})
			if err != nil {
				t.Fatal(err)
			}
			named, err := w.Feed.Subscribe("NAMED", feed.SubOptions{Buffer: 64})
			if err != nil {
				t.Fatal(err)
			}
			process := func(rs []*UpdateReport, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rs {
					if err := wc.ProcessReport(r); err != nil {
						t.Fatal(err)
					}
				}
			}
			// P1 ages out of YOUNG, stays in NAMED.
			process(src.Modify("A1", oem.Int(60)))
			evs := drainNow(young)
			if len(evs) != 1 || len(evs[0].Delete) != 1 || evs[0].Delete[0] != "P1" {
				t.Fatalf("YOUNG events = %+v", evs)
			}
			if evs := drainNow(named); len(evs) != 0 {
				t.Fatalf("NAMED got spurious events %+v", evs)
			}
			// Back under the threshold: P1 re-enters YOUNG.
			process(src.Modify("A1", oem.Int(30)))
			evs = drainNow(young)
			if len(evs) != 1 || len(evs[0].Insert) != 1 || evs[0].Insert[0] != "P1" {
				t.Fatalf("YOUNG re-entry events = %+v", evs)
			}
			young.Close()
			named.Close()
		})
	}
}

// TestFeedLevel1ModifyPublishes pins the WView recheck path: Level-1
// modify reports bypass the maintainer, so the view must publish its own
// synthesized deltas — once per membership change, never for no-ops.
func TestFeedLevel1ModifyPublishes(t *testing.T) {
	src, w, _ := fixture(t, Level1, ViewConfig{})
	sub, err := w.Feed.Subscribe("YP", feed.SubOptions{Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	process := func(rs []*UpdateReport, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.ProcessAll(rs); err != nil {
			t.Fatal(err)
		}
	}
	process(src.Modify("A1", oem.Int(60))) // P1 leaves
	process(src.Modify("A1", oem.Int(55))) // still out: no event
	process(src.Modify("A1", oem.Int(40))) // P1 returns
	evs := drainNow(sub)
	if len(evs) != 2 {
		t.Fatalf("events = %+v", evs)
	}
	if len(evs[0].Delete) != 1 || evs[0].Delete[0] != "P1" {
		t.Fatalf("first event = %+v", evs[0])
	}
	if len(evs[1].Insert) != 1 || evs[1].Insert[0] != "P1" {
		t.Fatalf("second event = %+v", evs[1])
	}
}

// startFeedServer builds a source served over TCP whose server exposes the
// changefeed of a warehouse maintaining views co-located with the source
// (the gsdbserve arrangement).
func startFeedServer(t *testing.T, ring int) (*Source, *Warehouse, *Server, string) {
	t.Helper()
	s := store.NewDefault()
	workload.PersonDB(s)
	src := NewSource("persons", s, "ROOT", Level2, NewTransport(0))
	src.DrainReports()
	w := New(src)
	w.Feed = feed.NewHub(feed.Options{RingSize: ring})
	if _, err := w.DefineView("YP", query.MustParse("SELECT ROOT.professor X WHERE X.age <= 45"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	server := NewServer(src)
	server.Feed = w.Feed
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = server.Serve(ln) }()
	t.Cleanup(server.Close)
	return src, w, server, ln.Addr().String()
}

// toggleA1 flips P1 in and out of the view n times, producing n feed
// events.
func toggleA1(t *testing.T, src *Source, w *Warehouse, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		val := int64(60) // leaves
		if i%2 == 1 {
			val = 30 // returns
		}
		rs, err := src.Modify("A1", oem.Int(val))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.ProcessAll(rs); err != nil {
			t.Fatal(err)
		}
	}
}

// legacyFeed speaks the single-view subscribe wire byte for byte, the
// way clients written before the multi-view protocol do: a raw mode line
// and request frame out, raw lines back.
type legacyFeed struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialLegacyFeed(t *testing.T, addr, request string) *legacyFeed {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := io.WriteString(conn, "subscribe\n"+request+"\n"); err != nil {
		t.Fatal(err)
	}
	return &legacyFeed{conn: conn, br: bufio.NewReader(conn)}
}

// next reads one frame line, without its newline.
func (lf *legacyFeed) next() (string, error) {
	_ = lf.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := lf.br.ReadString('\n')
	return strings.TrimSuffix(line, "\n"), err
}

// expect reads one frame line and requires it to equal want exactly.
func (lf *legacyFeed) expect(t *testing.T, want string) {
	t.Helper()
	got, err := lf.next()
	if err != nil {
		t.Fatalf("reading %s: %v", want, err)
	}
	if got != want {
		t.Fatalf("legacy frame changed:\n got  %s\n want %s", got, want)
	}
}

// expectEvent reads one bare event line for a toggleA1 step — cursor c
// at base sequence seq, P1 leaving (odd c) or returning (even c) — and
// requires every byte but the trailing trace stamps (origin, trace_id,
// which carry wall-clock time).
func (lf *legacyFeed) expectEvent(t *testing.T, c, seq uint64) {
	t.Helper()
	delta := `"delete":["P1"]`
	if c%2 == 0 {
		delta = `"insert":["P1"]`
	}
	want := fmt.Sprintf(`{"view":"YP","cursor":%d,"seq":%d,"kind":"modify","n1":"A1",%s`, c, seq, delta)
	got, err := lf.next()
	if err != nil {
		t.Fatalf("reading event %d: %v", c, err)
	}
	if rest, ok := strings.CutPrefix(got, want); !ok || (rest != "}" && !strings.HasPrefix(rest, `,"origin":`)) {
		t.Fatalf("legacy event changed:\n got  %s\n want %s}", got, want)
	}
}

// TestFeedOverTCP pins the legacy single-view subscribe wire end to end
// at the byte level — handshake, live tailing, resume after disconnect,
// the expired-cursor error and the snapshot fallback: the server
// translates these requests to multi-view subscriptions, and an old
// client must not be able to tell.
func TestFeedOverTCP(t *testing.T) {
	src, w, _, addr := startFeedServer(t, 4)

	// The request lines, as the legacy client encoded them.
	for _, tc := range []struct {
		req  feedRequest
		want string
	}{
		{feedRequest{View: "YP"}, `{"view":"YP"}`},
		{feedRequest{View: "YP", Resume: true, From: 2}, `{"view":"YP","resume":true,"from":2}`},
		{feedRequest{View: "YP", Resume: true, From: 4, Snapshot: true}, `{"view":"YP","resume":true,"from":4,"snapshot":true}`},
	} {
		if got, err := json.Marshal(tc.req); err != nil || string(got) != tc.want {
			t.Fatalf("request encoding = %s, %v; want %s", got, err, tc.want)
		}
	}

	dialLegacyFeed(t, addr, `{"view":"NOPE"}`).expect(t, `{"err":"feed: unknown view: NOPE","cursor":0,"oldest":0}`)
	// "*" is only a wildcard in the multi-view form.
	dialLegacyFeed(t, addr, `{"view":"*"}`).expect(t, `{"err":"feed: unknown view: *","cursor":0,"oldest":0}`)

	base := src.Store.Seq()
	lf := dialLegacyFeed(t, addr, `{"view":"YP"}`)
	lf.expect(t, `{"view":"YP","cursor":0,"oldest":0}`)
	toggleA1(t, src, w, 2)
	lf.expectEvent(t, 1, base+1)
	lf.expectEvent(t, 2, base+2)
	// Outlast a progress interval: a legacy stream carries no progress
	// frames, so the next line is still the next event.
	time.Sleep(defaultFeedProgressInterval + 200*time.Millisecond)
	toggleA1(t, src, w, 2)
	lf.expectEvent(t, 3, base+3)
	lf.conn.Close()

	// Resume within the ring: no gaps, no duplicates.
	lf = dialLegacyFeed(t, addr, `{"view":"YP","resume":true,"from":2}`)
	lf.expect(t, `{"view":"YP","cursor":4,"oldest":1}`)
	lf.expectEvent(t, 3, base+3)
	lf.expectEvent(t, 4, base+4)
	lf.conn.Close()

	// Overflow the 4-slot ring while disconnected: plain resume fails
	// with the expired marker the client keys its snapshot retry on.
	toggleA1(t, src, w, 8) // cursors 5..12; ring holds 9..12
	dialLegacyFeed(t, addr, `{"view":"YP","resume":true,"from":4}`).expect(t,
		`{"err":"feed: cursor expired: resume after 4, oldest retained 9 (ring 4)","expired":true,"cursor":0,"oldest":0}`)

	// Snapshot fallback: full membership (after an even number of
	// toggles P1 is back in), then a tail from the snapshot cursor.
	lf = dialLegacyFeed(t, addr, `{"view":"YP","resume":true,"from":4,"snapshot":true}`)
	lf.expect(t, `{"view":"YP","cursor":12,"oldest":9,"snapshot":{"cursor":12,"members":["P1"]}}`)
	toggleA1(t, src, w, 1)
	lf.expectEvent(t, 13, base+13)

	// Snapshot without resume never meant a bootstrap snapshot.
	dialLegacyFeed(t, addr, `{"view":"YP","snapshot":true}`).expect(t, `{"view":"YP","cursor":13,"oldest":10}`)
}

// TestFeedTCPFutureCursor pins the legacy wire error for a cursor beyond
// the feed's head: not an expiry, so no snapshot retry.
func TestFeedTCPFutureCursor(t *testing.T) {
	_, _, _, addr := startFeedServer(t, 16)
	dialLegacyFeed(t, addr, `{"view":"YP","resume":true,"from":99}`).expect(t,
		`{"err":"feed: cursor in the future: resume after 99, view at 0","cursor":0,"oldest":0}`)
}

// TestFeedTCPServerClose verifies closing the server terminates live
// legacy subscribe streams rather than leaving clients hanging.
func TestFeedTCPServerClose(t *testing.T) {
	_, _, server, addr := startFeedServer(t, 16)
	lf := dialLegacyFeed(t, addr, `{"view":"YP"}`)
	lf.expect(t, `{"view":"YP","cursor":0,"oldest":0}`)
	server.Close()
	if line, err := lf.next(); err == nil {
		t.Fatalf("read %q after server close", line)
	} else if err != io.EOF {
		// A reset is also acceptable; just require termination.
		t.Logf("stream ended with %v", err)
	}
}
