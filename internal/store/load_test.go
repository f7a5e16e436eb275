package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gsv/internal/oem"
)

// loadByPut is the reference for Load: it reads the same snapshot format
// but creates every object through Put, one path-copying commit at a
// time, and then advances the counters the way Load documents (seq to at
// least the snapshot's, genSeq to the snapshot's).
func loadByPut(opts Options, input string) (*Store, error) {
	s := New(opts)
	br := bufio.NewReader(strings.NewReader(input))
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, err
	}
	var meta persistMeta
	switch header {
	case persistHeader + "\n":
	case persistHeaderV2 + "\n":
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal([]byte(line), &meta); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("bad header %q", header)
	}
	dec := json.NewDecoder(br)
	for {
		var jo jsonObject
		if err := dec.Decode(&jo); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		o, err := jo.object()
		if err != nil {
			return nil, err
		}
		if err := s.Put(o); err != nil {
			return nil, err
		}
	}
	s.AdvanceSeq(meta.Seq)
	s.mu.Lock()
	s.genSeq = max(s.genSeq, meta.GenSeq)
	s.mu.Unlock()
	return s, nil
}

// indexDump renders an OID-set index as sorted member lists per key.
func indexDump(idx *pmap[*oidSet]) map[string][]string {
	out := map[string][]string{}
	idx.Range(func(k string, set *oidSet) bool {
		var ms []string
		set.Range(func(m string, _ struct{}) bool {
			ms = append(ms, m)
			return true
		})
		sort.Strings(ms)
		out[k] = ms
		return true
	})
	return out
}

// sameStore fails t unless got and want agree on every read: objects,
// parents (dangling children included), labels, both raw indexes and the
// counters.
func sameStore(t testing.TB, got, want *Store) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	oids := want.OIDs()
	if g := got.OIDs(); !reflect.DeepEqual(g, oids) {
		t.Fatalf("OIDs = %v, want %v", g, oids)
	}
	labels := map[string]bool{"no-such-label": true}
	children := map[oem.OID][]oem.OID{}
	for _, oid := range oids {
		wo, _ := want.Get(oid)
		g, err := got.Get(oid)
		if err != nil || !g.Equal(wo) {
			t.Fatalf("Get(%s) = %v, %v; want %v", oid, g, err, wo)
		}
		labels[wo.Label] = true
		for _, c := range wo.Set {
			children[c] = append(children[c], oid)
		}
	}
	probe := append(append([]oem.OID(nil), oids...), "no-such-oid")
	for c := range children {
		probe = append(probe, c) // dangling children too
	}
	for _, oid := range probe {
		wp, werr := want.Parents(oid)
		gp, gerr := got.Parents(oid)
		if (werr == nil) != (gerr == nil) || !reflect.DeepEqual(gp, wp) {
			t.Fatalf("Parents(%s) = %v, %v; want %v, %v", oid, gp, gerr, wp, werr)
		}
	}
	for c, ps := range children {
		for _, p := range ps {
			if !got.HasChild(p, c) {
				t.Fatalf("HasChild(%s, %s) = false", p, c)
			}
		}
	}
	for l := range labels {
		if g, w := got.ByLabel(l), want.ByLabel(l); !reflect.DeepEqual(g, w) {
			t.Fatalf("ByLabel(%s) = %v, want %v", l, g, w)
		}
	}
	gv, wv := got.cur.Load(), want.cur.Load()
	if g, w := indexDump(gv.parents), indexDump(wv.parents); !reflect.DeepEqual(g, w) {
		t.Fatalf("parent index = %v, want %v", g, w)
	}
	if g, w := indexDump(gv.byLabel), indexDump(wv.byLabel); !reflect.DeepEqual(g, w) {
		t.Fatalf("label index = %v, want %v", g, w)
	}
	gs, gg := got.Counters()
	ws, wg := want.Counters()
	if gs != ws || gg != wg {
		t.Fatalf("Counters = (%d,%d), want (%d,%d)", gs, gg, ws, wg)
	}
}

// randomSnapshot writes a snapshot of n random objects in random order:
// atoms of every kind, sets with shared, repeated and dangling children.
func randomSnapshot(rng *rand.Rand, n int, v2 bool) string {
	var b strings.Builder
	if v2 {
		b.WriteString(persistHeaderV2 + "\n")
		// Below n sometimes, so the seq floor of one per object shows.
		fmt.Fprintf(&b, `{"seq":%d,"gen_seq":%d}`+"\n", rng.Intn(3*n), rng.Intn(50))
	} else {
		b.WriteString(persistHeader + "\n")
	}
	labels := []string{"root", "tuple", "age", "name", "dept"}
	enc := json.NewEncoder(&b)
	for _, i := range rng.Perm(n) {
		jo := jsonObject{OID: oem.OID(fmt.Sprintf("O%d", i)), Label: labels[rng.Intn(len(labels))]}
		if rng.Intn(3) == 0 {
			jo.Kind, jo.Type = int(oem.KindSet), "set"
			for k := rng.Intn(6); k > 0; k-- {
				c := oem.OID(fmt.Sprintf("O%d", rng.Intn(n/4+1))) // shared among many parents
				if rng.Intn(5) == 0 {
					c = oem.OID(fmt.Sprintf("D%d", rng.Intn(8))) // dangling
				}
				jo.Set = append(jo.Set, c)
				if rng.Intn(6) == 0 {
					jo.Set = append(jo.Set, c) // repeated
				}
			}
		} else {
			a := jsonAtom{Kind: rng.Intn(int(oem.AtomBool) + 1)}
			switch oem.AtomKind(a.Kind) {
			case oem.AtomInt:
				a.I = rng.Int63n(200) - 100
			case oem.AtomFloat:
				a.F = rng.Float64()
			case oem.AtomString:
				a.S = fmt.Sprintf("s%d", rng.Intn(10))
			case oem.AtomBool:
				a.B = rng.Intn(2) == 0
			}
			jo.Kind, jo.Type, jo.Atom = int(oem.KindAtomic), "atom", &a
		}
		if err := enc.Encode(jo); err != nil {
			panic(err)
		}
	}
	return b.String()
}

// TestLoadMatchesPutBuild checks the in-place bulk build of Load against
// the per-object Put build on seeded random snapshots, under every index
// configuration and both snapshot versions; Load must publish silently.
func TestLoadMatchesPutBuild(t *testing.T) {
	for _, parentIdx := range []bool{false, true} {
		for _, labelIdx := range []bool{false, true} {
			for _, v2 := range []bool{false, true} {
				opts := Options{ParentIndex: parentIdx, LabelIndex: labelIdx}
				for seed := int64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("parents=%v/labels=%v/v2=%v/seed=%d", parentIdx, labelIdx, v2, seed)
					t.Run(name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(seed))
						input := randomSnapshot(rng, 100+rng.Intn(400), v2)
						want, err := loadByPut(opts, input)
						if err != nil {
							t.Fatal(err)
						}
						got := New(opts)
						notified := 0
						got.Subscribe(func(Update) { notified++ })
						if err := got.Load(strings.NewReader(input)); err != nil {
							t.Fatal(err)
						}
						if notified != 0 || len(got.Log()) != 0 {
							t.Fatalf("Load notified %d times and logged %d updates, want none", notified, len(got.Log()))
						}
						sameStore(t, got, want)
						checkPinSurvivesWrites(t, got)
					})
				}
			}
		}
	}
}

// checkPinSurvivesWrites pins s right after its Load, runs every kind of
// mutation through the path-copying write path, and checks that the pin
// still reads exactly the loaded state.
func checkPinSurvivesWrites(t *testing.T, s *Store) {
	t.Helper()
	pin := s.Snapshot()
	defer pin.Close()
	frozen := New(s.Options())
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := frozen.Load(&buf); err != nil {
		t.Fatal(err)
	}
	var set, atom oem.OID
	pin.ForEach(func(o *oem.Object) {
		if o.IsSet() && set == "" {
			set = o.OID
		}
		if o.IsAtomic() && atom == "" {
			atom = o.OID
		}
	})
	s.MustPut(oem.NewSet("NEW", "tuple"))
	if err := s.Insert("NEW", atom); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(set, "NEW"); err != nil {
		t.Fatal(err)
	}
	if err := s.Modify(atom, oem.String_("changed")); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(set); err != nil {
		t.Fatal(err)
	}
	if len(s.Log()) == 0 {
		t.Fatal("writes after Load were not logged")
	}
	if pin.Len() != frozen.Len() {
		t.Fatalf("pinned Len = %d after writes, want %d", pin.Len(), frozen.Len())
	}
	for _, oid := range append(frozen.OIDs(), "NEW") {
		wo, werr := frozen.Get(oid)
		po, perr := pin.Get(oid)
		if (werr == nil) != (perr == nil) || (werr == nil && !po.Equal(wo)) {
			t.Fatalf("pinned Get(%s) = %v, %v after writes; want %v, %v", oid, po, perr, wo, werr)
		}
		wp, _ := frozen.Parents(oid)
		pp, _ := pin.Parents(oid)
		if !reflect.DeepEqual(pp, wp) {
			t.Fatalf("pinned Parents(%s) = %v after writes, want %v", oid, pp, wp)
		}
	}
	for _, l := range []string{"root", "tuple", "age", "name", "dept"} {
		if p, w := pin.ByLabel(l), frozen.ByLabel(l); !reflect.DeepEqual(p, w) {
			t.Fatalf("pinned ByLabel(%s) = %v after writes, want %v", l, p, w)
		}
	}
}

// TestLoadIsAllOrNothing checks that a snapshot failing on a late line —
// a duplicate OID or a malformed object — leaves the store as it was.
func TestLoadIsAllOrNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	good := randomSnapshot(rng, 300, true)
	cases := map[string]string{
		"duplicate OID": good + `{"oid":"O7","label":"x","kind":1,"type":"set"}` + "\n",
		"bad kind":      good + `{"oid":"Z","label":"x","kind":9,"type":"set"}` + "\n",
		"broken json":   good + `{"oid":"Z","label":`,
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			s := NewDefault()
			err := s.Load(strings.NewReader(input))
			if err == nil {
				t.Fatal("Load succeeded")
			}
			if name == "duplicate OID" && !errors.Is(err, ErrExists) {
				t.Fatalf("Load = %v, want ErrExists", err)
			}
			seq, gen := s.Counters()
			if s.Len() != 0 || seq != 0 || gen != 0 || len(s.Log()) != 0 || s.Has("O7") {
				t.Fatalf("failed Load left len=%d seq=%d gen=%d log=%d", s.Len(), seq, gen, len(s.Log()))
			}
			// The store is still usable and loadable.
			if err := s.Load(strings.NewReader(good)); err != nil {
				t.Fatalf("Load after a failed Load: %v", err)
			}
		})
	}
}

// saveViaForEach is Save's encoding as written before it walked the
// version directly: counters from Counters, objects as ForEach's copies.
func saveViaForEach(s *Store, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, persistHeaderV2)
	seq, genSeq := s.Counters()
	meta, err := json.Marshal(persistMeta{Seq: seq, GenSeq: genSeq})
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", meta)
	enc := json.NewEncoder(bw)
	var encErr error
	s.ForEach(func(o *oem.Object) {
		if encErr != nil {
			return
		}
		jo := jsonObject{OID: o.OID, Label: o.Label, Kind: int(o.Kind), Type: o.Type}
		if o.IsAtomic() {
			jo.Atom = &jsonAtom{Kind: int(o.Atom.Kind), I: o.Atom.I, F: o.Atom.F, S: o.Atom.S, B: o.Atom.B}
		} else {
			jo.Set = o.Set
		}
		encErr = enc.Encode(jo)
	})
	if encErr != nil {
		return encErr
	}
	return bw.Flush()
}

// TestSaveMatchesForEachEncoding checks that Save's clone-free walk writes
// the same bytes as the ForEach-based encoding.
func TestSaveMatchesForEachEncoding(t *testing.T) {
	s, err := loadByPut(DefaultOptions(), randomSnapshot(rand.New(rand.NewSource(9)), 500, true))
	if err != nil {
		t.Fatal(err)
	}
	s.MustPut(oem.NewTypedAtom("D", "salary", "dollar", oem.Int(100)))
	s.MustPut(oem.NewAtom("U", "text", oem.String_("quote \" and <html> & unicode é")))
	var got, want bytes.Buffer
	if err := s.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := saveViaForEach(s, &want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("Save differs from the ForEach encoding:\n%s\nvs\n%s", got.String(), want.String())
	}
}
