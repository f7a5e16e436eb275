package warehouse

import (
	"bytes"
	"errors"
	"maps"
	"reflect"
	"slices"
	"testing"

	"gsv/internal/store"
	"gsv/internal/workload"
)

// FuzzNetFrame throws arbitrary byte lines at the wire protocol's frame
// decoder and request dispatcher. The invariant under test: malformed
// frames, oversized lines and unknown ops must all error cleanly — a
// hostile peer can never panic the server.
func FuzzNetFrame(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"op":"object","oid":"P1"}`),
		[]byte(`{"op":"path","oid":"A1"}`),
		[]byte(`{"op":"ancestor","oid":"A1","path":"age"}`),
		[]byte(`{"op":"query","query":"SELECT ROOT.professor X WHERE X.age <= 45"}`),
		[]byte(`{"op":"queryat","query":"SELECT ROOT.professor X","at":1}`),
		[]byte(`{"op":"subtree","oid":"P1","depth":2}`),
		[]byte(`{"op":"nonsense"}`),
		[]byte(`{"op":"trace","view":"YP"}`),
		[]byte(`{"op":"shard"}`),
		[]byte(`{"op":"members","view":"YP"}`),
		[]byte(`{"view":"YP","resume":true,"from":3,"policy":"drop"}`),
		[]byte(`{"views":["HOT","COLD"],"froms":{"HOT":41},"snapshot":true}`),
		[]byte(`{"views":["*"],"snapshot":true,"policy":"drop-oldest","buffer":8}`),
		[]byte(`{"views":[],"froms":{"":0}}`),
		[]byte(`{"op":"object","oid":"P1"} trailing garbage`),
		[]byte(`{"op":`),
		[]byte(`[1,2,3]`),
		[]byte(`"just a string"`),
		[]byte(``),
		[]byte("\x00\xff\xfe"),
		[]byte(`{"op":"object","oid":{"nested":"wrong type"}}`),
	}
	for _, s := range seeds {
		f.Add(s)
	}

	s := store.NewDefault()
	workload.PersonDB(s)
	src := NewSource("fuzz", s, "ROOT", Level2, NewTransport(0))
	src.DrainReports()
	server := NewServer(src)

	f.Fuzz(func(t *testing.T, line []byte) {
		var req netRequest
		if err := decodeFrame(line, &req); err == nil {
			resp := server.dispatch(req)
			// Unknown ops must be answered with an error frame, never
			// silently swallowed or crashed on.
			switch req.Op {
			case "object", "path", "ancestor", "eval", "subtree", "query", "queryat":
			default:
				if resp.Err == "" {
					t.Fatalf("unknown op %q produced no error", req.Op)
				}
			}
		}
		// The subscribe-mode request frame shares the decoder; it and the
		// legacy translation must be equally panic-free on the same input,
		// and translating an already translated request changes nothing.
		var fr feedRequest
		if err := decodeFrame(line, &fr); err == nil {
			fr.normalize()
			once := fr
			once.Views, once.Froms = slices.Clone(fr.Views), maps.Clone(fr.Froms)
			if fr.normalize() || !reflect.DeepEqual(fr, once) {
				t.Fatalf("translation not idempotent: %+v after %+v", fr, once)
			}
		}
	})
}

func TestDecodeFrameOversize(t *testing.T) {
	line := bytes.Repeat([]byte("a"), maxFrame+1)
	var req netRequest
	if err := decodeFrame(line, &req); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversized frame error = %v", err)
	}
}

func TestDecodeFrameTrailingData(t *testing.T) {
	var req netRequest
	if err := decodeFrame([]byte(`{"op":"object"} {"op":"path"}`), &req); err == nil {
		t.Fatal("trailing data accepted")
	}
}

// TestQueryModeSurvivesBadFrames pins the handleQueries behaviour the
// fuzz target assumes: a malformed line yields an error response and the
// connection keeps serving.
func TestQueryModeSurvivesBadFrames(t *testing.T) {
	_, _, remote := startNetSource(t, Level2)
	// A valid request works.
	if _, err := remote.FetchObject("P1"); err == nil {
		// Now push garbage through the same connection path by issuing a
		// request the server rejects, then a valid one again.
		if _, err := remote.FetchObject("no-such-oid"); err == nil {
			t.Fatal("missing object fetch succeeded")
		}
		if _, err := remote.FetchObject("P1"); err != nil {
			t.Fatalf("connection did not survive an error response: %v", err)
		}
		return
	}
	t.Fatal("initial fetch failed")
}
