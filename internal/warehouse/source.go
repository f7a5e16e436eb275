package warehouse

import (
	"fmt"
	"sync"
	"time"

	"gsv/internal/core"
	"gsv/internal/obs"
	"gsv/internal/oem"
	"gsv/internal/pathexpr"
	"gsv/internal/query"
	"gsv/internal/store"
)

// ReportLevel is the amount of detail a source monitor attaches to each
// update report — the three scenarios of Section 5.1.
type ReportLevel int

const (
	// Level1 reports only the update type and the OIDs of the directly
	// affected objects. Even the old/new values of a modify are withheld.
	Level1 ReportLevel = 1
	// Level2 additionally reports the label, type and value of every
	// directly affected object, enabling local screening.
	Level2 ReportLevel = 2
	// Level3 additionally reports path(ROOT, N1) with the OIDs and labels
	// of the objects along it — plausible because the source traversed
	// that path to perform the update.
	Level3 ReportLevel = 3
)

// String names the level.
func (l ReportLevel) String() string { return fmt.Sprintf("level%d", int(l)) }

// PathInfo is the Level3 enrichment: the path from the source root down to
// an object, as parallel OID and label sequences. OIDs[i] is the object
// whose label is Labels[i]; the root itself is not included.
type PathInfo struct {
	OIDs   []oem.OID
	Labels pathexpr.Path
}

// UpdateReport is one monitored update plus its level-dependent
// enrichment.
type UpdateReport struct {
	Source string
	Level  ReportLevel
	Update store.Update
	// Objects holds copies of the directly affected objects (Level >= 2),
	// keyed by OID.
	Objects map[oem.OID]*oem.Object
	// Path holds path(ROOT, N1) (Level 3). For inserts and deletes this is
	// the path to the parent; label(N2) is available from Objects.
	Path *PathInfo
}

// EncodedSize estimates the report's wire size.
func (r *UpdateReport) EncodedSize() int {
	n := 24 // kind, seq, OIDs
	for _, o := range r.Objects {
		n += o.EncodedSize()
	}
	if r.Path != nil {
		for i := range r.Path.OIDs {
			n += len(r.Path.OIDs[i]) + len(r.Path.Labels[i]) + 2
		}
	}
	return n
}

// Source is one autonomous data source: a GSDB store, the root object that
// queries and paths are anchored at, a wrapper answering warehouse queries
// and a monitor producing update reports. All query traffic is charged to
// the transport.
type Source struct {
	Name  string
	Store *store.Store
	// Root anchors path(ROOT, N) computations and source-side query
	// evaluation.
	Root      oem.OID
	Level     ReportLevel
	Transport *Transport

	access *core.CentralAccess
	// accessMu serializes every use of access (see withAccess): its Stats
	// pointer is installed and cleared per call, and concurrent server
	// query goroutines would otherwise stomp each other's counters.
	accessMu sync.Mutex
	// pendingMu guards pending: the store.Subscribe callback appends from
	// whatever goroutine mutates the store, while DrainReports swaps the
	// slice out from the server's broadcast loop.
	pendingMu sync.Mutex
	pending   []store.Update
	// Stats counts wrapper work performed on behalf of the warehouse.
	Stats WrapperStats
}

// WrapperStats counts the source-side work done answering queries. The
// fields are atomic counters: the server's query goroutines increment
// them while metrics scrapes and tests read them concurrently.
type WrapperStats struct {
	Queries        obs.Counter
	ObjectsTouched obs.Counter
}

// RegisterObs exposes the wrapper counters on reg, labeled by source.
func (s *Source) RegisterObs(reg *obs.Registry) {
	reg.Help("gsv_source_queries_total", "wrapper queries answered for the warehouse")
	reg.Help("gsv_source_objects_touched_total", "objects touched answering wrapper queries")
	ls := obs.L("source", s.Name)
	reg.RegisterCounter("gsv_source_queries_total", &s.Stats.Queries, ls)
	reg.RegisterCounter("gsv_source_objects_touched_total", &s.Stats.ObjectsTouched, ls)
	RegisterStoreObs(reg, s.Store, obs.L("store", "source:"+s.Name))
}

// NewSource wraps an existing store as a source. The store should already
// contain the base data; subsequent mutations must go through the source's
// mutation methods (or ApplyExternal) so the monitor sees them.
func NewSource(name string, s *store.Store, root oem.OID, level ReportLevel, tr *Transport) *Source {
	src := &Source{Name: name, Store: s, Root: root, Level: level, Transport: tr,
		access: core.NewCentralAccess(s)}
	s.Subscribe(func(u store.Update) {
		src.pendingMu.Lock()
		src.pending = append(src.pending, u)
		src.pendingMu.Unlock()
	})
	return src
}

// Insert applies insert(N1,N2) at the source and returns the resulting
// update reports.
func (s *Source) Insert(n1, n2 oem.OID) ([]*UpdateReport, error) {
	if err := s.Store.Insert(n1, n2); err != nil {
		return nil, err
	}
	return s.DrainReports(), nil
}

// Delete applies delete(N1,N2) at the source.
func (s *Source) Delete(n1, n2 oem.OID) ([]*UpdateReport, error) {
	if err := s.Store.Delete(n1, n2); err != nil {
		return nil, err
	}
	return s.DrainReports(), nil
}

// Modify applies modify(N, newv) at the source.
func (s *Source) Modify(n oem.OID, v oem.Atom) ([]*UpdateReport, error) {
	if err := s.Store.Modify(n, v); err != nil {
		return nil, err
	}
	return s.DrainReports(), nil
}

// Put creates a new object at the source. Creation alone affects no view;
// the report stream still carries it so warehouse caches can pre-learn the
// object at Level >= 2.
func (s *Source) Put(o *oem.Object) ([]*UpdateReport, error) {
	if err := s.Store.Put(o); err != nil {
		return nil, err
	}
	return s.DrainReports(), nil
}

// DrainReports enriches and returns the reports for all updates applied to
// the underlying store since the last drain. External code that mutates
// the store directly (e.g. a workload stream) calls this after each
// mutation; enrichment reflects the store state at drain time, so drain
// once per update for faithful Level3 paths.
func (s *Source) DrainReports() []*UpdateReport {
	s.pendingMu.Lock()
	us := s.pending
	s.pending = nil
	s.pendingMu.Unlock()
	reports := make([]*UpdateReport, 0, len(us))
	for _, u := range us {
		reports = append(reports, s.enrich(u))
	}
	return reports
}

// enrich builds the level-appropriate report for one update, stamping
// the propagation trace context (origin wall-clock instant + trace ID)
// at ingestion. The stamp lives on the report's copy of the update —
// the source store's own log is untouched — and rides it through the
// WAL, maintenance, the changefeed and replica apply. The trace ID is
// deterministic (source name + sequence) so a replayed update rejoins
// its original chain.
func (s *Source) enrich(u store.Update) *UpdateReport {
	if u.Seq != 0 && u.TraceID == "" {
		u.Origin = time.Now().UnixNano()
		u.TraceID = fmt.Sprintf("%s-%d", s.Name, u.Seq)
	}
	r := &UpdateReport{Source: s.Name, Level: s.Level, Update: u}
	if s.Level < Level2 {
		// Level 1 strips everything but the update type and OIDs,
		// including modify values and create payloads.
		r.Update.Old = oem.Atom{}
		r.Update.New = oem.Atom{}
		r.Update.Object = nil
		s.Transport.OneWay(r.EncodedSize(), 0)
		return r
	}
	r.Objects = make(map[oem.OID]*oem.Object)
	addObj := func(oid oem.OID) {
		if oid == oem.NoOID {
			return
		}
		if o, err := s.Store.Get(oid); err == nil {
			r.Objects[oid] = o
		}
	}
	addObj(u.N1)
	addObj(u.N2)
	if s.Level >= Level3 {
		s.withAccess(func(a *core.CentralAccess) {
			if p, ok, err := s.pathWithOIDs(a, u.N1); err == nil && ok {
				r.Path = p
			}
		})
	}
	s.Transport.OneWay(r.EncodedSize(), len(r.Objects))
	return r
}

// withAccess runs fn against the shared CentralAccess, serialized on
// accessMu, and returns the objects fn touched.
func (s *Source) withAccess(fn func(a *core.CentralAccess)) uint64 {
	st := core.AccessStats{}
	s.accessMu.Lock()
	defer s.accessMu.Unlock()
	s.access.Stats = &st
	fn(s.access)
	s.access.Stats = nil
	return uint64(st.ObjectsTouched)
}

// pathWithOIDs computes path(ROOT, n) together with the OIDs along it. a
// is the CentralAccess handed out by withAccess.
func (s *Source) pathWithOIDs(a *core.CentralAccess, n oem.OID) (*PathInfo, bool, error) {
	if n == s.Root {
		return &PathInfo{}, true, nil
	}
	p, ok, err := a.Path(s.Root, n)
	if err != nil || !ok {
		return nil, false, err
	}
	// Collect the OIDs by walking up from n: walking down from the root
	// label-by-label would be ambiguous with repeated labels.
	info := &PathInfo{Labels: p}
	info.OIDs = make([]oem.OID, len(p))
	cur := n
	for i := len(p) - 1; i >= 0; i-- {
		info.OIDs[i] = cur
		parents, err := s.Store.Parents(cur)
		if err != nil {
			return nil, false, err
		}
		next := oem.NoOID
		for _, par := range parents {
			lbl, err := s.Store.Label(par)
			if err != nil || oem.IsGroupingLabel(lbl) {
				continue
			}
			if _, _, isDel := splitDelegate(par); isDel {
				continue
			}
			if i == 0 {
				if par == s.Root {
					next = par
					break
				}
				continue
			}
			if lbl == p[i-1] {
				next = par
				break
			}
		}
		if next == oem.NoOID {
			return nil, false, nil
		}
		cur = next
	}
	return info, true, nil
}

func splitDelegate(oid oem.OID) (oem.OID, oem.OID, bool) { return core.SplitDelegateOID(oid) }

// --- Wrapper: the source query interface of Example 9 ---------------------

// FetchObject answers a warehouse query for one object.
func (s *Source) FetchObject(oid oem.OID) (*oem.Object, error) {
	s.Stats.Queries.Inc()
	o, err := s.Store.Get(oid)
	respObjects := 0
	respBytes := 8
	if err == nil {
		respObjects = 1
		respBytes = o.EncodedSize()
		s.Stats.ObjectsTouched.Inc()
	}
	s.Transport.RoundTrip(len(oid)+16, respBytes, respObjects)
	return o, err
}

// FetchPath answers "fetch the path from ROOT to n" (with OIDs).
func (s *Source) FetchPath(n oem.OID) (info *PathInfo, ok bool, err error) {
	s.Stats.Queries.Inc()
	s.Stats.ObjectsTouched.Add(s.withAccess(func(a *core.CentralAccess) {
		info, ok, err = s.pathWithOIDs(a, n)
	}))
	bytes := 8
	if ok {
		bytes = len(info.OIDs) * 16
	}
	s.Transport.RoundTrip(len(n)+16, bytes, 0)
	return info, ok, err
}

// FetchAncestor answers "fetch X where path(X, n) = p".
func (s *Source) FetchAncestor(n oem.OID, p pathexpr.Path) (y oem.OID, ok bool, err error) {
	s.Stats.Queries.Inc()
	s.Stats.ObjectsTouched.Add(s.withAccess(func(a *core.CentralAccess) {
		y, ok, err = a.Ancestor(n, p)
	}))
	s.Transport.RoundTrip(len(n)+len(p.String())+16, 24, 0)
	return y, ok, err
}

// FetchEval answers "fetch all objects X in n.p" with their values; the
// warehouse tests the condition locally, as in Example 9.
func (s *Source) FetchEval(n oem.OID, p pathexpr.Path) ([]*oem.Object, error) {
	s.Stats.Queries.Inc()
	var oids []oem.OID
	var err error
	s.Stats.ObjectsTouched.Add(s.withAccess(func(a *core.CentralAccess) {
		oids, err = a.EvalCond(n, p, core.CondTest{Always: true})
	}))
	if err != nil {
		s.Transport.RoundTrip(len(n)+16, 8, 0)
		return nil, err
	}
	out := make([]*oem.Object, 0, len(oids))
	bytes := 0
	for _, oid := range oids {
		if o, err := s.Store.Get(oid); err == nil {
			out = append(out, o)
			bytes += o.EncodedSize()
		}
	}
	s.Transport.RoundTrip(len(n)+len(p.String())+16, bytes+8, len(out))
	return out, nil
}

// FetchSubtree ships the objects reachable from n within depth hops —
// used by the auxiliary cache to learn newly attached structure with one
// query instead of many.
func (s *Source) FetchSubtree(n oem.OID, depth int) ([]*oem.Object, error) {
	s.Stats.Queries.Inc()
	var out []*oem.Object
	bytes := 0
	seen := map[oem.OID]bool{}
	type frame struct {
		oid oem.OID
		d   int
	}
	stack := []frame{{n, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[f.oid] {
			continue
		}
		seen[f.oid] = true
		o, err := s.Store.Get(f.oid)
		if err != nil {
			continue
		}
		s.Stats.ObjectsTouched.Inc()
		out = append(out, o)
		bytes += o.EncodedSize()
		if f.d < depth && o.IsSet() {
			for _, c := range o.Set {
				stack = append(stack, frame{c, f.d + 1})
			}
		}
	}
	s.Transport.RoundTrip(len(n)+20, bytes+8, len(out))
	return out, nil
}

// FetchQuery evaluates a full view query at the source — used for the
// initial materialization of a warehouse view. It is FetchQueryAt at the
// current version.
func (s *Source) FetchQuery(q *query.Query) ([]*oem.Object, error) {
	return s.FetchQueryAt(q, 0)
}

// FetchQueryAt implements SeqQuerier: it evaluates q and fetches the
// members from one pinned snapshot, at sequence number at, so the answer
// reflects exactly the updates with Seq <= at and every returned member
// satisfies q at that version — no interference from updates racing the
// fetch. A resync uses it to make its replay bound exact (staleness.go).
// at == 0, a sequence the version ring has already reclaimed, or one the
// store has not reached yet all degrade to the current version, which is
// a superset of `at` and therefore still a correct (conservative) bound.
func (s *Source) FetchQueryAt(q *query.Query, at uint64) ([]*oem.Object, error) {
	s.Stats.Queries.Inc()
	reqBytes := len(q.String())
	var snap *store.Snapshot
	if at != 0 && at < s.Store.Seq() {
		if sn, err := s.Store.SnapshotAt(at); err == nil {
			snap, reqBytes = sn, reqBytes+8
		}
	}
	if snap == nil {
		snap = s.Store.Snapshot()
	}
	defer snap.Close()
	members, err := query.NewEvaluator(snap).Eval(q)
	if err != nil {
		s.Transport.RoundTrip(64, 8, 0)
		return nil, err
	}
	out := make([]*oem.Object, 0, len(members))
	bytes := 0
	for _, m := range members {
		if o, err := snap.Get(m); err == nil {
			out = append(out, o)
			bytes += o.EncodedSize()
			s.Stats.ObjectsTouched.Inc()
		}
	}
	s.Transport.RoundTrip(reqBytes, bytes+8, len(out))
	return out, nil
}

var _ SeqQuerier = (*Source)(nil)
