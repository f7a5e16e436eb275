package store

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLoad checks that the snapshot loader never panics on arbitrary
// input, that it accepts exactly what a per-object Put build accepts and
// then equals that build, and that whatever it accepts re-saves to a
// snapshot that loads to an equal store (idempotent round trip).
func FuzzLoad(f *testing.F) {
	// Seed with a real snapshot and assorted corruptions.
	s := buildPerson(f, DefaultOptions())
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("")
	f.Add("gsv-snapshot-v1\n")
	f.Add("gsv-snapshot-v1\n{}\n")
	f.Add("gsv-snapshot-v1\n{\"oid\":\"A\",\"label\":\"x\",\"kind\":1,\"type\":\"set\",\"set\":[\"B\"]}\n")
	f.Add("gsv-snapshot-v2\n{\"seq\":1,\"gen_seq\":3}\n{\"oid\":\"A\",\"label\":\"x\",\"kind\":1,\"type\":\"set\",\"set\":[\"B\",\"B\",\"A\"]}\n")
	f.Add("gsv-snapshot-v1\n{\"oid\":\"A\",\"label\":\"x\",\"kind\":1,\"type\":\"set\"}\n{\"oid\":\"A\",\"label\":\"y\",\"kind\":1,\"type\":\"set\"}\n")
	f.Add("not a snapshot")
	f.Add(strings.Replace(buf.String(), "45", "\"45\"", 1))

	f.Fuzz(func(t *testing.T, input string) {
		first := NewDefault()
		err := first.Load(strings.NewReader(input))
		ref, refErr := loadByPut(DefaultOptions(), input)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Load error %v, but the Put build's error is %v", err, refErr)
		}
		if err != nil {
			if first.Len() != 0 {
				t.Fatalf("rejected input left %d objects", first.Len())
			}
			return
		}
		sameStore(t, first, ref)
		var out bytes.Buffer
		if err := first.Save(&out); err != nil {
			t.Fatalf("accepted input failed to save: %v", err)
		}
		second := NewDefault()
		if err := second.Load(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-save failed to load: %v", err)
		}
		if first.Len() != second.Len() {
			t.Fatalf("round trip changed object count: %d -> %d", first.Len(), second.Len())
		}
		for _, oid := range first.OIDs() {
			a, _ := first.Get(oid)
			b, err := second.Get(oid)
			if err != nil || !a.Equal(b) {
				t.Fatalf("round trip changed %s: %v vs %v (%v)", oid, a, b, err)
			}
		}
	})
}
