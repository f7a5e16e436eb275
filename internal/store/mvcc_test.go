package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"gsv/internal/oem"
)

// TestLoadPreservesCountersUnderPin round-trips a store through Save/Load
// while a snapshot of the destination is pinned: the v2 counters (seq and
// the next-OID counter) must survive into the versioned representation,
// and the pinned pre-load snapshot must stay frozen at the empty version.
func TestLoadPreservesCountersUnderPin(t *testing.T) {
	src := buildPerson(t, DefaultOptions())
	gen := src.GenOID("obj")
	src.MustPut(oem.NewAtom(gen, "gen", oem.Int(1)))
	if err := src.Modify("A1", oem.Int(46)); err != nil {
		t.Fatal(err)
	}
	wantSeq, wantGen := src.Counters()

	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}

	dst := New(DefaultOptions())
	pin := dst.Snapshot() // pinned across the load
	defer pin.Close()
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}

	gotSeq, gotGen := dst.Counters()
	if gotSeq < wantSeq || gotGen < wantGen {
		t.Fatalf("loaded counters = (%d,%d), want at least (%d,%d)", gotSeq, gotGen, wantSeq, wantGen)
	}
	// Fresh OIDs continue the original timeline — no collision with an
	// OID the source store already generated.
	if oid := dst.GenOID("obj"); oid == gen || dst.Has(oid) {
		t.Fatalf("GenOID after load collided: %s", oid)
	}

	// The pre-load pin still reads the empty version.
	if pin.Seq() != 0 || pin.Len() != 0 || pin.Has("ROOT") {
		t.Fatalf("pinned snapshot moved: seq=%d len=%d has(ROOT)=%v", pin.Seq(), pin.Len(), pin.Has("ROOT"))
	}
	// The loaded state answers current reads.
	o, err := dst.Get("A1")
	if err != nil || !o.Atom.Equal(oem.Int(46)) {
		t.Fatalf("loaded Get(A1) = %v, %v", o, err)
	}
}

// verifySnapshotCoherent checks one pinned version for internal
// consistency: the parent index, label index and object graph must agree
// with each other exactly — a torn view (index from one version, objects
// from another) fails here.
func verifySnapshotCoherent(t *testing.T, snap *Snapshot) {
	t.Helper()
	seq := snap.Seq()
	n := 0
	var failure string
	snap.ForEach(func(o *oem.Object) {
		n++
		if failure != "" {
			return
		}
		// Label index agrees with the object.
		found := false
		for _, l := range snap.ByLabel(o.Label) {
			if l == o.OID {
				found = true
				break
			}
		}
		if !found {
			failure = fmt.Sprintf("object %s (label %s) missing from ByLabel at seq %d", o.OID, o.Label, seq)
			return
		}
		// Every edge is mirrored in the parent index and HasChild.
		for _, c := range o.Set {
			if !snap.HasChild(o.OID, c) {
				failure = fmt.Sprintf("edge %s->%s not in HasChild at seq %d", o.OID, c, seq)
				return
			}
			if snap.Has(c) {
				parents, err := snap.Parents(c)
				if err != nil {
					failure = fmt.Sprintf("Parents(%s) at seq %d: %v", c, seq, err)
					return
				}
				ok := false
				for _, p := range parents {
					if p == o.OID {
						ok = true
						break
					}
				}
				if !ok {
					failure = fmt.Sprintf("parent index lost %s<-%s at seq %d", c, o.OID, seq)
					return
				}
			}
		}
	})
	if failure != "" {
		t.Error(failure)
		return
	}
	if n != snap.Len() {
		t.Errorf("ForEach visited %d objects, Len=%d at seq %d", n, snap.Len(), seq)
	}
	if snap.Seq() != seq {
		t.Errorf("snapshot seq moved %d -> %d", seq, snap.Seq())
	}
}

// TestSnapshotConsistencySoak holds snapshots in N reader goroutines
// across a mutation storm and asserts each reader sees a frozen,
// internally consistent version: no torn parent/label index views, no
// moving sequence numbers. Run under -race this also proves the
// lock-free read path publishes versions safely.
func TestSnapshotConsistencySoak(t *testing.T) {
	s := buildPerson(t, DefaultOptions())
	const readers = 6
	const rounds = 120

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer storm: object churn, edge churn, value churn — every class
	// of version transition including silent publishes (Remove, GC).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			oid := oem.OID(fmt.Sprintf("T%d", i))
			a := oem.OID(fmt.Sprintf("TA%d", i))
			s.MustPut(oem.NewSet(oid, "churn", a))
			s.MustPut(oem.NewAtom(a, "age", oem.Int(int64(i))))
			if err := s.Insert("ROOT", oid); err != nil {
				panic(err)
			}
			if err := s.Modify(a, oem.Int(int64(i+1))); err != nil {
				panic(err)
			}
			if i%3 == 2 {
				if err := s.Delete("ROOT", oid); err != nil {
					panic(err)
				}
				if err := s.Remove(oid); err != nil {
					panic(err)
				}
				if err := s.Remove(a); err != nil {
					panic(err)
				}
			}
			if i%40 == 39 {
				s.CollectGarbage("ROOT")
			}
		}
		close(stop)
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var held *Snapshot // a long-held pin, re-verified each lap
			for lap := 0; ; lap++ {
				select {
				case <-stop:
					if held != nil {
						verifySnapshotCoherent(t, held)
						held.Close()
					}
					return
				default:
				}
				snap := s.Snapshot()
				verifySnapshotCoherent(t, snap)
				if held == nil {
					held = snap // keep the first pin alive across the storm
					continue
				}
				if lap%10 == 0 {
					verifySnapshotCoherent(t, held) // still frozen
				}
				snap.Close()
			}
		}(r)
	}
	wg.Wait()

	if pinned := s.MVCC().PinnedSnapshots; pinned != 0 {
		t.Fatalf("leaked %d snapshot pins", pinned)
	}
	verifySnapshotCoherent(t, s.Snapshot())
}

// TestBorrowSharesTheVersionObject checks the borrowed-read contract: a
// borrow is the version's own object (no copy), it stays frozen at the
// pinned version while writers commit, and a closed snapshot lends
// nothing.
func TestBorrowSharesTheVersionObject(t *testing.T) {
	s := buildPerson(t, DefaultOptions())
	snap := s.Snapshot()
	b1, ok1 := snap.Borrow("A1")
	b2, ok2 := s.Borrow("A1")
	if !ok1 || !ok2 || b1 != b2 {
		t.Fatalf("Borrow(A1) = %p/%v and %p/%v, want the same shared object", b1, ok1, b2, ok2)
	}
	if _, ok := s.Borrow("NOSUCH"); ok {
		t.Fatal("Borrow of a missing OID reported ok")
	}
	old := b1.Atom
	if err := s.Modify("A1", oem.Int(99)); err != nil {
		t.Fatal(err)
	}
	if b, _ := snap.Borrow("A1"); b != b1 || !b.Atom.Equal(old) {
		t.Fatalf("pinned borrow moved to %v, want %v", b.Atom, old)
	}
	if b, _ := s.Borrow("A1"); !b.Atom.Equal(oem.Int(99)) || !b1.Atom.Equal(old) {
		t.Fatalf("current borrow = %v, earlier borrow = %v", b.Atom, b1.Atom)
	}
	snap.Close()
	if _, ok := snap.Borrow("A1"); ok {
		t.Fatal("closed snapshot lent an object")
	}
}
