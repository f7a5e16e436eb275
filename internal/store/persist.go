package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"gsv/internal/oem"
)

// persistHeader identifies the snapshot format. v1 snapshots carry only
// objects; v2 prepends a meta line persisting the store's counters (the
// update sequence number and the GenOID counter), so a restored store
// continues the original timeline instead of restarting both at zero —
// restarting genSeq can reuse OIDs that departed objects still dangle to,
// and restarting seq breaks every consumer keyed on source sequence
// numbers (warehouse resume, WAL replay, feed cursors).
const (
	persistHeader   = "gsv-snapshot-v1"
	persistHeaderV2 = "gsv-snapshot-v2"
)

// persistMeta is the v2 meta line.
type persistMeta struct {
	Seq    uint64 `json:"seq"`
	GenSeq uint64 `json:"gen_seq"`
}

// jsonObject is the serialized form of one object. Atom values round-trip
// through a tagged representation so integers survive undamaged.
type jsonObject struct {
	OID   oem.OID   `json:"oid"`
	Label string    `json:"label"`
	Kind  int       `json:"kind"`
	Type  string    `json:"type"`
	Atom  *jsonAtom `json:"atom,omitempty"`
	Set   []oem.OID `json:"set,omitempty"`
}

type jsonAtom struct {
	Kind int     `json:"kind"`
	I    int64   `json:"i,omitempty"`
	F    float64 `json:"f,omitempty"`
	S    string  `json:"s,omitempty"`
	B    bool    `json:"b,omitempty"`
}

// Save writes a snapshot of the store: a v2 header line, a meta line with
// the sequence counters, then the objects as line-delimited JSON in sorted
// OID order. The update log and subscriptions are not part of a snapshot —
// a snapshot is a database, not a replication stream — but the counters
// are, so that a restored store keeps assigning fresh sequence numbers and
// fresh OIDs. Counters and objects come from one version, and the objects
// are encoded straight from it, without the copies ForEach makes.
func (s *Store) Save(w io.Writer) error {
	s.mu.Lock()
	v, genSeq := s.cur.Load(), s.genSeq
	s.mu.Unlock()
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, persistHeaderV2); err != nil {
		return err
	}
	meta, err := json.Marshal(persistMeta{Seq: v.seq, GenSeq: genSeq})
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%s\n", meta); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	for _, oid := range readOIDs(v) {
		o, _ := v.get(oid)
		jo := jsonObject{OID: o.OID, Label: o.Label, Kind: int(o.Kind), Type: o.Type}
		if o.IsAtomic() {
			jo.Atom = &jsonAtom{Kind: int(o.Atom.Kind), I: o.Atom.I, F: o.Atom.F, S: o.Atom.S, B: o.Atom.B}
		} else {
			jo.Set = o.Set
		}
		if err := enc.Encode(jo); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a snapshot produced by Save into an empty store. Loading into
// a non-empty store fails: snapshots restore databases, they do not merge.
//
// Load builds the restored version's object trie and indexes in place —
// nothing can see them until they are done — and publishes it once,
// silently: no update is logged and no subscriber is called, because a
// snapshot is a database, not a replication stream. It is all-or-nothing:
// on any error the store is left as it was. The sequence number advances
// by one per loaded object, or to the snapshot's recorded seq if that is
// higher (v2), so it never runs backwards; the GenOID counter is restored
// from the v2 meta line.
func (s *Store) Load(r io.Reader) error {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return fmt.Errorf("store: reading snapshot header: %w", err)
	}
	var meta persistMeta
	switch header {
	case persistHeader + "\n":
		// v1: no counters were recorded; leave meta zero.
	case persistHeaderV2 + "\n":
		line, err := br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("store: reading snapshot meta: %w", err)
		}
		if err := json.Unmarshal([]byte(line), &meta); err != nil {
			return fmt.Errorf("store: decoding snapshot meta: %w", err)
		}
	default:
		return fmt.Errorf("store: bad snapshot header %q", header)
	}
	loaded := &version{objects: &pmap[*oem.Object]{}}
	if s.opts.ParentIndex {
		loaded.parents = &pmap[*oidSet]{}
	}
	if s.opts.LabelIndex {
		loaded.byLabel = &pmap[*oidSet]{}
	}
	dec := json.NewDecoder(br)
	for {
		var jo jsonObject
		if err := dec.Decode(&jo); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("store: decoding snapshot: %w", err)
		}
		o, err := jo.object()
		if err != nil {
			return err
		}
		if !loaded.objects.setOwned(string(o.OID), o) {
			return fmt.Errorf("%w: %s", ErrExists, o.OID)
		}
		if loaded.byLabel != nil {
			addOwned(loaded.byLabel, o.Label, o.OID)
		}
		if loaded.parents != nil && o.Kind == oem.KindSet {
			for _, c := range o.Set {
				addOwned(loaded.parents, string(c), o.OID)
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur.Load()
	if n := cur.objects.Len(); n != 0 {
		return fmt.Errorf("store: Load requires an empty store (have %d objects)", n)
	}
	loaded.seq = max(cur.seq+uint64(loaded.objects.Len()), meta.Seq)
	s.genSeq = max(s.genSeq, meta.GenSeq)
	s.publishLocked(loaded)
	return nil
}

// object validates a decoded snapshot line and returns its object.
func (jo *jsonObject) object() (*oem.Object, error) {
	if jo.OID == "" {
		return nil, fmt.Errorf("store: snapshot object without OID")
	}
	if k := oem.Kind(jo.Kind); k != oem.KindAtomic && k != oem.KindSet {
		return nil, fmt.Errorf("store: snapshot object %s has invalid kind %d", jo.OID, jo.Kind)
	}
	o := &oem.Object{OID: jo.OID, Label: jo.Label, Kind: oem.Kind(jo.Kind), Type: jo.Type}
	if o.Kind == oem.KindAtomic {
		if jo.Atom == nil {
			return nil, fmt.Errorf("store: atomic object %s without atom", jo.OID)
		}
		if k := oem.AtomKind(jo.Atom.Kind); k < oem.AtomNone || k > oem.AtomBool {
			return nil, fmt.Errorf("store: snapshot object %s has invalid atom kind %d", jo.OID, jo.Atom.Kind)
		}
		o.Atom = oem.Atom{Kind: oem.AtomKind(jo.Atom.Kind), I: jo.Atom.I, F: jo.Atom.F, S: jo.Atom.S, B: jo.Atom.B}
	} else {
		o.Set = jo.Set
	}
	return o, nil
}

// addOwned adds oid to the OID set idx holds under key, in place; idx and
// its sets must still be unshared (see pmap.setOwned).
func addOwned(idx *pmap[*oidSet], key string, oid oem.OID) {
	set, _ := idx.Get(key)
	if set == nil {
		set = &oidSet{}
		idx.setOwned(key, set)
	}
	set.setOwned(string(oid), struct{}{})
}
