package store

import (
	"errors"
	"fmt"
	"sync/atomic"

	"gsv/internal/oem"
)

// ErrSnapshotReclaimed reports a read against a snapshot that is no longer
// available: either the handle was Closed, or SnapshotAt asked for a
// sequence number older than the store's retained version horizon.
var ErrSnapshotReclaimed = errors.New("store: snapshot reclaimed")

// ErrFutureSeq reports a SnapshotAt for a sequence number the store has not
// committed yet.
var ErrFutureSeq = errors.New("store: sequence not yet committed")

// oidSet is a persistent set of OIDs, used for the parent and label indexes
// so that every committed version carries its own consistent index state.
type oidSet = pmap[struct{}]

// version is one immutable committed state of the store: the object map and
// both indexes as of seq. Versions are never modified after publication;
// writers derive the next version by path-copying (see pmap) and swap it in
// atomically, so readers holding any version see a frozen, internally
// consistent store — objects, parent index and label index all at the same
// sequence number.
type version struct {
	seq     uint64
	objects *pmap[*oem.Object]
	parents *pmap[*oidSet] // child -> parents, when ParentIndex
	byLabel *pmap[*oidSet] // label -> objects, when LabelIndex
}

// next returns a mutable shallow copy carrying the same maps; the caller
// replaces whichever maps it changes before committing.
func (v *version) next() *version {
	return &version{seq: v.seq, objects: v.objects, parents: v.parents, byLabel: v.byLabel}
}

// Reader is the read-only surface of a store, implemented by both *Store
// (reads resolve against the current version, lock-free) and *Snapshot
// (reads resolve against one pinned version). Query evaluation, view
// maintenance access paths and serving tiers consume Reader so they can be
// pointed at either live state or a frozen point-in-time view.
type Reader interface {
	Options() Options
	Len() int
	Seq() uint64
	Get(oid oem.OID) (*oem.Object, error)
	// Borrow returns the shared immutable version object named by oid,
	// without the copy Get makes. Never mutate it: the same pointer is
	// visible to every reader of that version, now and later.
	Borrow(oid oem.OID) (*oem.Object, bool)
	Has(oid oem.OID) bool
	HasChild(parent, child oem.OID) bool
	Label(oid oem.OID) (string, error)
	Children(oid oem.OID) ([]oem.OID, error)
	Parents(oid oem.OID) ([]oem.OID, error)
	ByLabel(label string) []oem.OID
	OIDs() []oem.OID
	ForEach(fn func(*oem.Object))
	DatabaseMembers(db oem.OID) (map[oem.OID]bool, error)
}

var (
	_ Reader = (*Store)(nil)
	_ Reader = (*Snapshot)(nil)
)

// ---- version read helpers (shared by Store and Snapshot) ----

func (v *version) get(oid oem.OID) (*oem.Object, bool) {
	return v.objects.Get(string(oid))
}

func readGet(v *version, oid oem.OID) (*oem.Object, error) {
	o, ok := v.get(oid)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, oid)
	}
	return o.Clone(), nil
}

func readHasChild(v *version, opts Options, parent, child oem.OID) bool {
	if opts.ParentIndex {
		ps, ok := v.parents.Get(string(child))
		return ok && ps.Has(string(parent))
	}
	o, ok := v.get(parent)
	return ok && o.Contains(child)
}

func readLabel(v *version, oid oem.OID) (string, error) {
	o, ok := v.get(oid)
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNotFound, oid)
	}
	return o.Label, nil
}

func readChildren(v *version, oid oem.OID) ([]oem.OID, error) {
	o, ok := v.get(oid)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, oid)
	}
	if o.Kind != oem.KindSet {
		return nil, nil
	}
	out := make([]oem.OID, len(o.Set))
	copy(out, o.Set)
	return out, nil
}

func readParents(v *version, opts Options, oid oem.OID) ([]oem.OID, error) {
	if _, ok := v.get(oid); !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, oid)
	}
	if opts.ParentIndex {
		ps, _ := v.parents.Get(string(oid))
		out := make([]oem.OID, 0, ps.Len())
		ps.Range(func(p string, _ struct{}) bool {
			out = append(out, oem.OID(p))
			return true
		})
		return oem.SortOIDs(out), nil
	}
	var out []oem.OID
	v.objects.Range(func(poid string, p *oem.Object) bool {
		if p.Contains(oid) {
			out = append(out, oem.OID(poid))
		}
		return true
	})
	return oem.SortOIDs(out), nil
}

func readByLabel(v *version, opts Options, label string) []oem.OID {
	if opts.LabelIndex {
		m, _ := v.byLabel.Get(label)
		out := make([]oem.OID, 0, m.Len())
		m.Range(func(oid string, _ struct{}) bool {
			out = append(out, oem.OID(oid))
			return true
		})
		return oem.SortOIDs(out)
	}
	var out []oem.OID
	v.objects.Range(func(oid string, o *oem.Object) bool {
		if o.Label == label {
			out = append(out, oem.OID(oid))
		}
		return true
	})
	return oem.SortOIDs(out)
}

func readOIDs(v *version) []oem.OID {
	out := make([]oem.OID, 0, v.objects.Len())
	v.objects.Range(func(oid string, _ *oem.Object) bool {
		out = append(out, oem.OID(oid))
		return true
	})
	return oem.SortOIDs(out)
}

func readForEach(v *version, fn func(*oem.Object)) {
	for _, oid := range readOIDs(v) {
		if o, ok := v.get(oid); ok {
			fn(o.Clone())
		}
	}
}

func readDatabaseMembers(v *version, db oem.OID) (map[oem.OID]bool, error) {
	o, ok := v.get(db)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, db)
	}
	if !o.IsSet() {
		return nil, fmt.Errorf("%w: %s", ErrNotSet, db)
	}
	m := make(map[oem.OID]bool, len(o.Set))
	for _, oid := range o.Set {
		m[oid] = true
	}
	return m, nil
}

// ---- snapshot handles ----

// Snapshot is a pinned, immutable point-in-time view of a store. All read
// methods mirror *Store's and resolve against the version current when the
// snapshot was taken (or the version SnapshotAt resolved), without locks
// and unaffected by concurrent mutation. Close releases the pin; reads on a
// closed snapshot fail with ErrSnapshotReclaimed (methods without an error
// return report empty results).
//
// Snapshots are cheap — taking one is an atomic load plus a counter — so
// per-request pinning is the intended usage pattern.
type Snapshot struct {
	s      *Store
	v      *version
	closed atomic.Bool
}

// Seq returns the sequence number the snapshot is pinned at.
func (sn *Snapshot) Seq() uint64 { return sn.v.seq }

// Options returns the options of the store the snapshot came from.
func (sn *Snapshot) Options() Options { return sn.s.opts }

// Close releases the snapshot's pin. It is idempotent; all subsequent reads
// return ErrSnapshotReclaimed or empty results.
func (sn *Snapshot) Close() {
	if sn.closed.CompareAndSwap(false, true) {
		sn.s.pins.Add(-1)
	}
}

func (sn *Snapshot) view() (*version, error) {
	if sn.closed.Load() {
		return nil, fmt.Errorf("%w: seq %d", ErrSnapshotReclaimed, sn.v.seq)
	}
	return sn.v, nil
}

// Len returns the number of objects at the pinned version.
func (sn *Snapshot) Len() int {
	if sn.closed.Load() {
		return 0
	}
	return sn.v.objects.Len()
}

// Get returns a copy of the object named by oid at the pinned version.
func (sn *Snapshot) Get(oid oem.OID) (*oem.Object, error) {
	v, err := sn.view()
	if err != nil {
		return nil, err
	}
	return readGet(v, oid)
}

// Borrow returns the shared, never-to-be-mutated object named by oid at
// the pinned version (see Reader). It reports false on a closed snapshot.
func (sn *Snapshot) Borrow(oid oem.OID) (*oem.Object, bool) {
	if sn.closed.Load() {
		return nil, false
	}
	return sn.v.get(oid)
}

// Has reports whether oid names an object at the pinned version.
func (sn *Snapshot) Has(oid oem.OID) bool {
	if sn.closed.Load() {
		return false
	}
	_, ok := sn.v.get(oid)
	return ok
}

// HasChild reports whether child is in the set value of parent at the
// pinned version.
func (sn *Snapshot) HasChild(parent, child oem.OID) bool {
	if sn.closed.Load() {
		return false
	}
	return readHasChild(sn.v, sn.s.opts, parent, child)
}

// Label returns the label of the object named by oid at the pinned version.
func (sn *Snapshot) Label(oid oem.OID) (string, error) {
	v, err := sn.view()
	if err != nil {
		return "", err
	}
	return readLabel(v, oid)
}

// Children returns the set value of oid at the pinned version.
func (sn *Snapshot) Children(oid oem.OID) ([]oem.OID, error) {
	v, err := sn.view()
	if err != nil {
		return nil, err
	}
	return readChildren(v, oid)
}

// Parents returns the parents of oid at the pinned version.
func (sn *Snapshot) Parents(oid oem.OID) ([]oem.OID, error) {
	v, err := sn.view()
	if err != nil {
		return nil, err
	}
	return readParents(v, sn.s.opts, oid)
}

// ByLabel returns the OIDs carrying label at the pinned version.
func (sn *Snapshot) ByLabel(label string) []oem.OID {
	if sn.closed.Load() {
		return nil
	}
	return readByLabel(sn.v, sn.s.opts, label)
}

// OIDs returns every OID at the pinned version, sorted.
func (sn *Snapshot) OIDs() []oem.OID {
	if sn.closed.Load() {
		return nil
	}
	return readOIDs(sn.v)
}

// ForEach calls fn with a copy of every object at the pinned version, in
// sorted OID order.
func (sn *Snapshot) ForEach(fn func(*oem.Object)) {
	if sn.closed.Load() {
		return
	}
	readForEach(sn.v, fn)
}

// DatabaseMembers returns the member set of a database object at the pinned
// version.
func (sn *Snapshot) DatabaseMembers(db oem.OID) (map[oem.OID]bool, error) {
	v, err := sn.view()
	if err != nil {
		return nil, err
	}
	return readDatabaseMembers(v, db)
}

// ---- version history ring ----

// vring is a bounded ring of recently committed versions, ordered by
// ascending sequence number. It backs SnapshotAt: time-travel reads within
// the retention window. Eviction is how old versions are reclaimed — once a
// version leaves the ring and no snapshot pins it, the garbage collector
// frees the trie nodes unique to it.
type vring struct {
	buf   []*version
	start int
	n     int
}

func newVring(capacity int) *vring {
	if capacity < 1 {
		capacity = 1
	}
	return &vring{buf: make([]*version, capacity)}
}

func (r *vring) at(i int) *version { return r.buf[(r.start+i)%len(r.buf)] }

// push appends v, replacing the newest entry when the sequence number is
// unchanged (silent state changes such as garbage collection republish the
// same seq). It reports how many versions were evicted.
func (r *vring) push(v *version) int {
	if r.n > 0 && r.at(r.n-1).seq == v.seq {
		r.buf[(r.start+r.n-1)%len(r.buf)] = v
		return 0
	}
	if r.n == len(r.buf) {
		r.buf[r.start] = nil
		r.start = (r.start + 1) % len(r.buf)
		r.n--
		r.buf[(r.start+r.n)%len(r.buf)] = v
		r.n++
		return 1
	}
	r.buf[(r.start+r.n)%len(r.buf)] = v
	r.n++
	return 0
}

// find returns the newest version with seq <= want, or nil when every
// retained version is newer (the horizon has passed want).
func (r *vring) find(want uint64) *version {
	lo, hi := 0, r.n // invariant: versions before lo have seq <= want
	for lo < hi {
		mid := (lo + hi) / 2
		if r.at(mid).seq <= want {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	return r.at(lo - 1)
}

func (r *vring) oldest() *version {
	if r.n == 0 {
		return nil
	}
	return r.at(0)
}

// ---- store-level snapshot API ----

// Snapshot pins the store's current version and returns a handle for
// reading it. The read path takes no locks: concurrent writers publish
// later versions without affecting the pinned one. Callers should Close the
// snapshot when done so the pinned-snapshot gauge stays meaningful.
func (s *Store) Snapshot() *Snapshot {
	s.pins.Add(1)
	s.taken.Add(1)
	return &Snapshot{s: s, v: s.cur.Load()}
}

// SnapshotAt pins the newest retained version with sequence number at most
// seq — the store state as of seq. It fails with ErrSnapshotReclaimed when
// seq predates the retention horizon (Options.RetainVersions) and with
// ErrFutureSeq when seq has not been committed yet.
func (s *Store) SnapshotAt(seq uint64) (*Snapshot, error) {
	if cur := s.cur.Load(); seq > cur.seq {
		return nil, fmt.Errorf("%w: seq %d ahead of store seq %d", ErrFutureSeq, seq, cur.seq)
	}
	s.histMu.Lock()
	v := s.hist.find(seq)
	var horizon uint64
	if o := s.hist.oldest(); o != nil {
		horizon = o.seq
	}
	s.histMu.Unlock()
	if v == nil {
		return nil, fmt.Errorf("%w: seq %d below retention horizon %d", ErrSnapshotReclaimed, seq, horizon)
	}
	s.pins.Add(1)
	s.taken.Add(1)
	return &Snapshot{s: s, v: v}, nil
}

// MVCCStats describes the store's version machinery, suitable for gauge
// export (gsv_store_* in docs/OBSERVABILITY.md).
type MVCCStats struct {
	// Seq is the current committed sequence number.
	Seq uint64
	// RetainedVersions is how many versions the history ring holds.
	RetainedVersions int
	// OldestRetained is the sequence number of the oldest retained version
	// — the SnapshotAt horizon.
	OldestRetained uint64
	// PinnedSnapshots is the number of snapshots taken and not yet Closed.
	PinnedSnapshots int64
	// SnapshotsTaken counts snapshots ever taken.
	SnapshotsTaken uint64
	// ReclaimedVersions counts versions evicted from the history ring.
	ReclaimedVersions uint64
}

// MVCC returns a point-in-time reading of the store's version machinery.
func (s *Store) MVCC() MVCCStats {
	s.histMu.Lock()
	retained := s.hist.n
	var oldest uint64
	if o := s.hist.oldest(); o != nil {
		oldest = o.seq
	}
	evicted := s.evicted
	s.histMu.Unlock()
	return MVCCStats{
		Seq:               s.cur.Load().seq,
		RetainedVersions:  retained,
		OldestRetained:    oldest,
		PinnedSnapshots:   s.pins.Load(),
		SnapshotsTaken:    s.taken.Load(),
		ReclaimedVersions: evicted,
	}
}
