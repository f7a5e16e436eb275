// Package store implements an in-memory storage engine for graph structured
// databases (GSDBs). A Store holds OEM objects, applies the three basic
// updates of the paper's Section 4.1 — insert(N1,N2), delete(N1,N2) and
// modify(N,oldv,newv) — assigns every mutation a sequence number in an
// update log, and notifies subscribed monitors. Optional parent and label
// indexes accelerate the helper functions used by incremental view
// maintenance; they can be disabled to reproduce the paper's cost
// discussion for index-free sources.
//
// The store is multi-versioned (MVCC): every committed mutation publishes a
// new immutable version — object map plus both indexes, structurally shared
// with its predecessor via persistent tries (pmap.go) — at the mutation's
// WAL commit point. Reads never take a lock: they resolve against the
// version current at call time, and Snapshot / SnapshotAt pin a version so
// a reader sees one frozen, internally consistent state for as long as it
// likes while writers race ahead. docs/MVCC.md describes the lifecycle.
package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gsv/internal/oem"
)

// Common errors returned by store operations.
var (
	// ErrNotFound reports that an OID does not name an object in the store.
	ErrNotFound = errors.New("store: object not found")
	// ErrExists reports an attempt to create an object whose OID is taken.
	ErrExists = errors.New("store: object already exists")
	// ErrNotSet reports a child operation on an atomic object.
	ErrNotSet = errors.New("store: object is not a set object")
	// ErrNotAtomic reports a modify on a set object.
	ErrNotAtomic = errors.New("store: object is not an atomic object")
	// ErrNotChild reports a delete of an edge that does not exist.
	ErrNotChild = errors.New("store: not a child of parent")
)

// DefaultRetainVersions is the history depth used when
// Options.RetainVersions is zero: how far back SnapshotAt can reach.
const DefaultRetainVersions = 512

// Options configure a Store.
type Options struct {
	// ParentIndex maintains, for every object, the set of its parents. With
	// the index, path(ROOT,N) and ancestor(N,p) walk up from N; without it
	// they traverse down from the root, which the paper identifies as the
	// expensive case (Section 4.4).
	ParentIndex bool
	// LabelIndex maintains a map from label to the OIDs carrying it.
	LabelIndex bool
	// LogCapacity bounds the retained update log; zero keeps every update.
	// The sequence counter is monotonic regardless of trimming.
	LogCapacity int
	// AllowDangling permits Insert to add a child OID that names no object
	// in this store. OEM values are just sets of OIDs and remote references
	// are legitimate; warehouse view stores enable this so delegate values
	// can keep pointing at base objects that live at the sources.
	AllowDangling bool
	// RetainVersions bounds the version history ring that serves
	// SnapshotAt: how many committed versions stay addressable by sequence
	// number. Zero means DefaultRetainVersions; pinned snapshots are never
	// invalidated by eviction — the ring only limits how far back *new*
	// SnapshotAt calls can reach.
	RetainVersions int
}

// DefaultOptions enables both indexes and an unbounded log.
func DefaultOptions() Options {
	return Options{ParentIndex: true, LabelIndex: true}
}

// Store is a mutable, multi-versioned collection of OEM objects. All
// methods are safe for concurrent use; read methods take no locks. Objects
// returned by read methods are defensive copies; mutations must go through
// the update methods so that indexes, the log and subscribers stay
// consistent.
type Store struct {
	opts Options

	// cur is the current committed version; readers load it atomically.
	cur atomic.Pointer[version]

	// mu serializes writers and guards log, subs and genSeq. It is never
	// taken on the read path.
	mu     sync.Mutex
	log    []Update
	genSeq uint64
	subs   []func(Update)

	// histMu guards the version-history ring (SnapshotAt's index). Writers
	// take it briefly after publishing; it is not on the plain read path.
	histMu  sync.Mutex
	hist    *vring
	evicted uint64

	pins  atomic.Int64
	taken atomic.Uint64
}

// New returns an empty store with the given options.
func New(opts Options) *Store {
	retain := opts.RetainVersions
	if retain == 0 {
		retain = DefaultRetainVersions
	}
	s := &Store{opts: opts, hist: newVring(retain)}
	v := &version{}
	s.cur.Store(v)
	s.hist.push(v)
	return s
}

// NewDefault returns an empty store with DefaultOptions.
func NewDefault() *Store { return New(DefaultOptions()) }

// Options returns the options the store was created with.
func (s *Store) Options() Options { return s.opts }

// publishLocked swaps next in as the current version and records it in the
// history ring. Callers hold s.mu.
func (s *Store) publishLocked(next *version) {
	s.cur.Store(next)
	s.histMu.Lock()
	s.evicted += uint64(s.hist.push(next))
	s.histMu.Unlock()
}

// commitLocked logs u, notifies subscribers, and then publishes next as the
// successor version (seq+1) — one committed version per logged mutation,
// the same commit points the WAL records. Callers hold s.mu.
//
// Publication comes last deliberately: the moment a reader can observe
// sequence number N, every subscriber (source monitors, group-commit
// buffers, the WAL) has already been handed update N. Readers stamping
// results with Seq() therefore never claim a state whose report is still
// in flight inside the store.
func (s *Store) commitLocked(next *version, u Update) {
	next.seq = s.cur.Load().seq + 1
	u.Seq = next.seq
	s.log = append(s.log, u)
	if s.opts.LogCapacity > 0 && len(s.log) > s.opts.LogCapacity {
		s.log = s.log[len(s.log)-s.opts.LogCapacity:]
	}
	for _, fn := range s.subs {
		fn(u)
	}
	s.publishLocked(next)
}

// Len returns the number of objects in the store.
func (s *Store) Len() int { return s.cur.Load().objects.Len() }

// Get returns a copy of the object named by oid.
func (s *Store) Get(oid oem.OID) (*oem.Object, error) {
	return readGet(s.cur.Load(), oid)
}

// Borrow returns the shared, never-to-be-mutated object named by oid in
// the current version (see Reader).
func (s *Store) Borrow(oid oem.OID) (*oem.Object, bool) {
	return s.cur.Load().get(oid)
}

// Has reports whether oid names an object in the store.
func (s *Store) Has(oid oem.OID) bool {
	_, ok := s.cur.Load().get(oid)
	return ok
}

// HasChild reports whether child is in the set value of parent. With the
// parent index this is two trie probes — no object clone — which is what
// makes per-update membership screening affordable; without it the
// parent's value is scanned in place.
func (s *Store) HasChild(parent, child oem.OID) bool {
	return readHasChild(s.cur.Load(), s.opts, parent, child)
}

// Label returns the label of the object named by oid.
func (s *Store) Label(oid oem.OID) (string, error) {
	return readLabel(s.cur.Load(), oid)
}

// Children returns the value of a set object: the OIDs of its children.
// Atomic objects have no children; Children returns nil for them.
func (s *Store) Children(oid oem.OID) ([]oem.OID, error) {
	return readChildren(s.cur.Load(), oid)
}

// Parents returns the OIDs of objects whose set value contains oid. With
// the parent index the lookup is O(parents); without it the whole store is
// scanned, mirroring the cost asymmetry the paper discusses.
func (s *Store) Parents(oid oem.OID) ([]oem.OID, error) {
	return readParents(s.cur.Load(), s.opts, oid)
}

// ByLabel returns the OIDs of all objects carrying the given label. With
// the label index the lookup is O(matches); without it the store is scanned.
func (s *Store) ByLabel(label string) []oem.OID {
	return readByLabel(s.cur.Load(), s.opts, label)
}

// OIDs returns every OID in the store, sorted.
func (s *Store) OIDs() []oem.OID { return readOIDs(s.cur.Load()) }

// ForEach calls fn with a copy of every object, in sorted OID order. The
// whole iteration observes one version: a point-in-time-consistent scan
// even while writers commit concurrently.
func (s *Store) ForEach(fn func(*oem.Object)) { readForEach(s.cur.Load(), fn) }

// GenOID returns a fresh OID with the given prefix that is not currently in
// use. It is used for query answers, view objects and set-operation results
// ("an arbitrary unique OID" in the paper's terms).
func (s *Store) GenOID(prefix string) oem.OID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.genOIDLocked(prefix)
}

func (s *Store) genOIDLocked(prefix string) oem.OID {
	v := s.cur.Load()
	for {
		s.genSeq++
		oid := oem.OID(fmt.Sprintf("%s_%d", prefix, s.genSeq))
		if _, ok := v.get(oid); !ok {
			return oid
		}
	}
}

// Counters returns the store's monotonic counters: the sequence number of
// the most recent update and the GenOID counter. Snapshots persist both so
// a restored store continues the original timeline.
func (s *Store) Counters() (seq, genSeq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur.Load().seq, s.genSeq
}

// AdvanceSeq raises the update sequence counter to at least seq, without
// emitting anything. Recovery calls it after WAL replay so that future
// updates are always assigned numbers above everything the durable log
// has seen, even if replay re-derived slightly fewer machinery updates
// than the original timeline.
func (s *Store) AdvanceSeq(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := s.cur.Load(); seq > v.seq {
		next := v.next()
		next.seq = seq
		s.publishLocked(next)
	}
}

// ApplyUpdate re-executes one logged update against the store — the WAL
// replay entrypoint. The update is applied through the normal mutation
// methods, so indexes, the log and subscribers all observe it; the replay
// is assigned fresh sequence numbers from the store's (restored) counter
// rather than reusing u.Seq. Synthetic updates (UpdateNone) are ignored.
func (s *Store) ApplyUpdate(u Update) error {
	switch u.Kind {
	case UpdateCreate:
		if u.Object == nil {
			return fmt.Errorf("store: replaying create(%s) without object", u.N1)
		}
		return s.Put(u.Object)
	case UpdateInsert:
		return s.Insert(u.N1, u.N2)
	case UpdateDelete:
		return s.Delete(u.N1, u.N2)
	case UpdateModify:
		return s.Modify(u.N1, u.New)
	case UpdateNone:
		return nil
	default:
		return fmt.Errorf("store: cannot replay %s", u)
	}
}

// Put creates a new object. The object's children need not exist yet — OEM
// is schemaless and dangling OIDs are permitted (a query simply cannot
// traverse them). Put records a Create update in the log.
func (s *Store) Put(o *oem.Object) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.cur.Load()
	if _, ok := v.get(o.OID); ok {
		return fmt.Errorf("%w: %s", ErrExists, o.OID)
	}
	c := o.Clone()
	next := v.next()
	next.objects = next.objects.With(string(c.OID), c)
	indexAdd(next, s.opts, c)
	s.commitLocked(next, Update{Kind: UpdateCreate, N1: c.OID, Object: c.Clone()})
	return nil
}

// MustPut is Put for construction code where a duplicate OID is a bug.
func (s *Store) MustPut(o *oem.Object) {
	if err := s.Put(o); err != nil {
		panic(err)
	}
}

// Insert applies insert(N1,N2): it adds OID N2 to the set value of N1,
// making N2 a child of N1. N1 must exist and be a set object. N2 must
// exist: the basic updates of Section 4.1 manipulate edges between existing
// objects (new objects are first created with Put, which has no effect on
// views until an insert connects them).
func (s *Store) Insert(n1, n2 oem.OID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.cur.Load()
	p, ok := v.get(n1)
	if !ok {
		return fmt.Errorf("%w: parent %s", ErrNotFound, n1)
	}
	if p.Kind != oem.KindSet {
		return fmt.Errorf("%w: %s", ErrNotSet, n1)
	}
	if _, ok := v.get(n2); !ok && !s.opts.AllowDangling {
		return fmt.Errorf("%w: child %s", ErrNotFound, n2)
	}
	if p.Contains(n2) {
		return nil // already a child; value unchanged, nothing to log
	}
	np := p.Clone()
	np.Add(n2)
	next := v.next()
	next.objects = next.objects.With(string(n1), np)
	if s.opts.ParentIndex {
		ps, _ := next.parents.Get(string(n2))
		next.parents = next.parents.With(string(n2), ps.With(string(n1), struct{}{}))
	}
	s.commitLocked(next, Update{Kind: UpdateInsert, N1: n1, N2: n2})
	return nil
}

// Delete applies delete(N1,N2): it removes OID N2 from the set value of N1.
// Orphaned objects are not reclaimed here; see CollectGarbage.
func (s *Store) Delete(n1, n2 oem.OID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.cur.Load()
	p, ok := v.get(n1)
	if !ok {
		return fmt.Errorf("%w: parent %s", ErrNotFound, n1)
	}
	if p.Kind != oem.KindSet {
		return fmt.Errorf("%w: %s", ErrNotSet, n1)
	}
	if !p.Contains(n2) {
		return fmt.Errorf("%w: %s not in %s", ErrNotChild, n2, n1)
	}
	np := p.Clone()
	np.Remove(n2)
	next := v.next()
	next.objects = next.objects.With(string(n1), np)
	if s.opts.ParentIndex {
		if ps, ok := next.parents.Get(string(n2)); ok {
			ps = ps.Without(string(n1))
			if ps.Len() == 0 {
				next.parents = next.parents.Without(string(n2))
			} else {
				next.parents = next.parents.With(string(n2), ps)
			}
		}
	}
	s.commitLocked(next, Update{Kind: UpdateDelete, N1: n1, N2: n2})
	return nil
}

// Modify applies modify(N,oldv,newv): it changes the value of atomic object
// N. The old value is recorded in the update, as Algorithm 1 requires.
func (s *Store) Modify(n oem.OID, newv oem.Atom) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.cur.Load()
	o, ok := v.get(n)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, n)
	}
	if o.Kind != oem.KindAtomic {
		return fmt.Errorf("%w: %s", ErrNotAtomic, n)
	}
	oldv := o.Atom
	no := o.Clone()
	no.Atom = newv
	no.Type = newTypeFor(o.Type, oldv, newv)
	next := v.next()
	next.objects = next.objects.With(string(n), no)
	s.commitLocked(next, Update{Kind: UpdateModify, N1: n, Old: oldv, New: newv})
	return nil
}

// newTypeFor keeps a custom type name (such as "dollar") when the
// representation kind is unchanged, and falls back to the atom's own type
// name when the kind changes.
func newTypeFor(cur string, oldv, newv oem.Atom) string {
	if oldv.Kind == newv.Kind {
		return cur
	}
	return newv.TypeName()
}

// SetValue replaces the whole value of a set object. The paper models this
// as a series of insertions and deletions, and so does SetValue: one logged
// update per edge changed.
func (s *Store) SetValue(n oem.OID, members []oem.OID) error {
	cur, err := s.Children(n)
	if err != nil {
		return err
	}
	curSet := make(map[oem.OID]bool, len(cur))
	for _, c := range cur {
		curSet[c] = true
	}
	newSet := make(map[oem.OID]bool, len(members))
	for _, m := range members {
		newSet[m] = true
	}
	for _, c := range cur {
		if !newSet[c] {
			if err := s.Delete(n, c); err != nil {
				return err
			}
		}
	}
	for _, m := range members {
		if !curSet[m] {
			if err := s.Insert(n, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// Remove deletes an object outright, detaching it from all parents first.
// It is not one of the paper's basic updates — sources model removal as
// edge deletions followed by garbage collection — but tools need it.
func (s *Store) Remove(oid oem.OID) error {
	parents, err := s.Parents(oid)
	if err != nil {
		return err
	}
	for _, p := range parents {
		if err := s.Delete(p, oid); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.cur.Load()
	o, ok := v.get(oid)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, oid)
	}
	next := v.next()
	next.objects = next.objects.Without(string(oid))
	indexRemove(next, s.opts, o)
	// Children lose this parent.
	if s.opts.ParentIndex && o.Kind == oem.KindSet {
		for _, c := range o.Set {
			if ps, ok := next.parents.Get(string(c)); ok {
				ps = ps.Without(string(oid))
				if ps.Len() == 0 {
					next.parents = next.parents.Without(string(c))
				} else {
					next.parents = next.parents.With(string(c), ps)
				}
			}
		}
	}
	// The object drop itself is silent (same seq), matching the paper's
	// model where only edge changes are updates; the new version replaces
	// the current one in the history ring.
	s.publishLocked(next)
	return nil
}

// CollectGarbage removes every object not reachable from the given roots,
// following set values. It returns the OIDs removed. The paper notes that
// objects no longer pointed at "may be garbage collected"; roots typically
// include the database objects and any view objects.
func (s *Store) CollectGarbage(roots ...oem.OID) []oem.OID {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.cur.Load()
	reachable := make(map[oem.OID]bool, v.objects.Len())
	stack := make([]oem.OID, 0, len(roots))
	for _, r := range roots {
		if _, ok := v.get(r); ok && !reachable[r] {
			reachable[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		oid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		o, _ := v.get(oid)
		if o == nil || o.Kind != oem.KindSet {
			continue
		}
		for _, c := range o.Set {
			if _, ok := v.get(c); ok && !reachable[c] {
				reachable[c] = true
				stack = append(stack, c)
			}
		}
	}
	var removed []oem.OID
	next := v.next()
	v.objects.Range(func(key string, o *oem.Object) bool {
		oid := oem.OID(key)
		if !reachable[oid] {
			removed = append(removed, oid)
			next.objects = next.objects.Without(key)
			indexRemove(next, s.opts, o)
			next.parents = next.parents.Without(key)
		}
		return true
	})
	// Drop parent-index entries that point at removed parents.
	if s.opts.ParentIndex && len(removed) > 0 {
		next.parents.Range(func(c string, ps *oidSet) bool {
			trimmed := ps
			ps.Range(func(p string, _ struct{}) bool {
				if !next.objects.Has(p) {
					trimmed = trimmed.Without(p)
				}
				return true
			})
			if trimmed != ps {
				if trimmed.Len() == 0 {
					next.parents = next.parents.Without(c)
				} else {
					next.parents = next.parents.With(c, trimmed)
				}
			}
			return true
		})
	}
	if len(removed) > 0 {
		s.publishLocked(next) // silent, like Remove's object drop
	}
	return oem.SortOIDs(removed)
}

// indexAdd records a newly created object in next's label and parent
// indexes.
func indexAdd(next *version, opts Options, o *oem.Object) {
	if opts.LabelIndex {
		m, _ := next.byLabel.Get(o.Label)
		next.byLabel = next.byLabel.With(o.Label, m.With(string(o.OID), struct{}{}))
	}
	if opts.ParentIndex && o.Kind == oem.KindSet {
		for _, c := range o.Set {
			ps, _ := next.parents.Get(string(c))
			next.parents = next.parents.With(string(c), ps.With(string(o.OID), struct{}{}))
		}
	}
}

// indexRemove drops a removed object from next's label index.
func indexRemove(next *version, opts Options, o *oem.Object) {
	if opts.LabelIndex {
		if m, ok := next.byLabel.Get(o.Label); ok {
			m = m.Without(string(o.OID))
			if m.Len() == 0 {
				next.byLabel = next.byLabel.Without(o.Label)
			} else {
				next.byLabel = next.byLabel.With(o.Label, m)
			}
		}
	}
}
