package core

import (
	"fmt"

	"gsv/internal/oem"
	"gsv/internal/pathexpr"
	"gsv/internal/query"
	"gsv/internal/store"
)

// BaseAccess isolates the computations of Algorithm 1 that need access to
// the base databases — the functions path(ROOT,N), ancestor(N,p) and
// eval(N,p,cond) of Section 4.3, plus object fetches for delegate creation.
// The same maintenance code runs centralized (CentralAccess, direct store
// reads) and in a warehouse (the warehouse package implements BaseAccess by
// sending source queries), exactly as the paper intends when it says the
// algorithm "isolates the computations that need access to the base
// databases".
type BaseAccess interface {
	// Path returns path(root, n): the label path from root to n, assuming
	// tree structure (at most one path between two objects). ok is false
	// when n is not a descendant of root. Path(root, root) is the empty
	// path.
	Path(root, n oem.OID) (pathexpr.Path, bool, error)
	// Ancestor returns ancestor(n, p): the ancestor y of n with
	// path(y, n) = p, or ok=false if none exists. Ancestor(n, ε) is n.
	Ancestor(n oem.OID, p pathexpr.Path) (oem.OID, bool, error)
	// EvalCond returns eval(n, p, cond): the objects in n.p that satisfy
	// the condition.
	EvalCond(n oem.OID, p pathexpr.Path, cond CondTest) ([]oem.OID, error)
	// Fetch returns a copy of object n, for delegate creation.
	Fetch(n oem.OID) (*oem.Object, error)
	// Label returns label(n).
	Label(n oem.OID) (string, error)
}

// AccessStats counts the base accesses a maintainer performed; experiment
// E2 compares these across index configurations and the warehouse package
// maps them to source queries.
type AccessStats struct {
	PathCalls     int
	AncestorCalls int
	EvalCalls     int
	FetchCalls    int
	LabelCalls    int
	// ObjectsTouched counts individual base objects read.
	ObjectsTouched int
}

// Add accumulates other into s.
func (s *AccessStats) Add(other AccessStats) {
	s.PathCalls += other.PathCalls
	s.AncestorCalls += other.AncestorCalls
	s.EvalCalls += other.EvalCalls
	s.FetchCalls += other.FetchCalls
	s.LabelCalls += other.LabelCalls
	s.ObjectsTouched += other.ObjectsTouched
}

// CentralAccess implements BaseAccess directly against a store — the
// centralized setting of Section 4, where base data and view reside at the
// same site. When the store maintains a parent index, Path and Ancestor
// walk up from the object; without it they fall back to traversals from the
// root or scans, reproducing the cost asymmetry of Section 4.4 ("if there
// does not exist such an index, evaluating the same function may require a
// traversal from ROOT to N").
type CentralAccess struct {
	// S is the base read surface: the live store, or a pinned snapshot when
	// a maintenance batch wants every read answered at one version (see
	// Registry.ApplyBatch).
	S store.Reader
	// Within restricts all traversals to members of this database object,
	// implementing a WITHIN clause in the view definition. Empty means
	// unrestricted.
	Within oem.OID
	// Stats, when non-nil, accumulates access counters.
	Stats *AccessStats
}

// NewCentralAccess returns a CentralAccess over s — a live store or a
// pinned snapshot.
func NewCentralAccess(s store.Reader) *CentralAccess { return &CentralAccess{S: s} }

func (a *CentralAccess) touch(n int) {
	if a.Stats != nil {
		a.Stats.ObjectsTouched += n
	}
}

// scope returns the WITHIN member set, or nil for unrestricted access.
func (a *CentralAccess) scope() (map[oem.OID]bool, error) {
	if a.Within == "" {
		return nil, nil
	}
	return a.S.DatabaseMembers(a.Within)
}

func inScope(scope map[oem.OID]bool, oid oem.OID) bool {
	return scope == nil || scope[oid]
}

// Label implements BaseAccess.
func (a *CentralAccess) Label(n oem.OID) (string, error) {
	if a.Stats != nil {
		a.Stats.LabelCalls++
	}
	a.touch(1)
	return a.S.Label(n)
}

// Fetch implements BaseAccess.
func (a *CentralAccess) Fetch(n oem.OID) (*oem.Object, error) {
	if a.Stats != nil {
		a.Stats.FetchCalls++
	}
	a.touch(1)
	return a.S.Get(n)
}

// Path implements BaseAccess. With a parent index it walks up from n,
// collecting labels; without one it searches down from root.
func (a *CentralAccess) Path(root, n oem.OID) (pathexpr.Path, bool, error) {
	if a.Stats != nil {
		a.Stats.PathCalls++
	}
	scope, err := a.scope()
	if err != nil {
		return nil, false, err
	}
	if !inScope(scope, n) || !inScope(scope, root) {
		return nil, false, nil
	}
	if n == root {
		return pathexpr.Path{}, true, nil
	}
	if a.S.Options().ParentIndex {
		return a.pathUp(root, n, scope)
	}
	return a.pathDown(root, n, scope)
}

// pathUp walks parent links from n toward root. The base is assumed to be
// a tree; with multiple parents (a DAG) it explores all of them and returns
// the first root-reaching path, which is unique on trees.
func (a *CentralAccess) pathUp(root, n oem.OID, scope map[oem.OID]bool) (pathexpr.Path, bool, error) {
	type frame struct {
		oid  oem.OID
		path pathexpr.Path // labels from oid down to n
	}
	lbl, err := a.S.Label(n)
	if err != nil {
		return nil, false, err
	}
	a.touch(1)
	stack := []frame{{n, pathexpr.Path{lbl}}}
	visited := map[oem.OID]bool{n: true}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		parents, err := a.S.Parents(f.oid)
		if err != nil {
			return nil, false, err
		}
		a.touch(len(parents))
		for _, p := range parents {
			if !inScope(scope, p) {
				continue
			}
			if p == root {
				return f.path, true, nil
			}
			if visited[p] {
				continue
			}
			visited[p] = true
			plbl, err := a.S.Label(p)
			if err != nil {
				return nil, false, err
			}
			if oem.IsGroupingLabel(plbl) || isDelegate(p) {
				// Grouping objects (databases, views) point at everything,
				// and delegates of co-located materialized views shadow
				// base objects; neither is part of the base data tree
				// unless used as root.
				continue
			}
			stack = append(stack, frame{p, pathexpr.Path{plbl}.Concat(f.path)})
		}
	}
	return nil, false, nil
}

// pathDown searches from root for n — the index-free fallback.
func (a *CentralAccess) pathDown(root, n oem.OID, scope map[oem.OID]bool) (pathexpr.Path, bool, error) {
	type frame struct {
		oid  oem.OID
		path pathexpr.Path
	}
	stack := []frame{{root, pathexpr.Path{}}}
	visited := map[oem.OID]bool{root: true}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		kids, err := a.S.Children(f.oid)
		if err != nil {
			continue // object vanished mid-walk; treat as leaf
		}
		a.touch(1)
		for _, c := range kids {
			if !inScope(scope, c) || visited[c] {
				continue
			}
			lbl, err := a.S.Label(c)
			if err != nil {
				continue // dangling reference
			}
			cpath := f.path.Concat(pathexpr.Path{lbl})
			if c == n {
				return cpath, true, nil
			}
			visited[c] = true
			stack = append(stack, frame{c, cpath})
		}
	}
	return nil, false, nil
}

// Ancestor implements BaseAccess. With a parent index it walks up len(p)
// steps verifying labels; without one it scans candidate ancestors —
// the expensive case the paper warns about.
func (a *CentralAccess) Ancestor(n oem.OID, p pathexpr.Path) (oem.OID, bool, error) {
	if a.Stats != nil {
		a.Stats.AncestorCalls++
	}
	scope, err := a.scope()
	if err != nil {
		return oem.NoOID, false, err
	}
	if !inScope(scope, n) {
		return oem.NoOID, false, nil
	}
	if len(p) == 0 {
		return n, true, nil
	}
	if a.S.Options().ParentIndex {
		return a.ancestorUp(n, p, scope)
	}
	return a.ancestorScan(n, p, scope)
}

func (a *CentralAccess) ancestorUp(n oem.OID, p pathexpr.Path, scope map[oem.OID]bool) (oem.OID, bool, error) {
	// Walk up one step per label of p, last label first. On a tree each
	// step has one parent; on DAG bases all parents are explored.
	cur := []oem.OID{n}
	for i := len(p) - 1; i >= 0; i-- {
		var next []oem.OID
		for _, oid := range cur {
			lbl, err := a.S.Label(oid)
			if err != nil {
				continue
			}
			a.touch(1)
			if lbl != p[i] {
				continue
			}
			parents, err := a.S.Parents(oid)
			if err != nil {
				continue
			}
			a.touch(len(parents))
			for _, par := range parents {
				if inScope(scope, par) && !isDelegate(par) {
					next = append(next, par)
				}
			}
		}
		if len(next) == 0 {
			return oem.NoOID, false, nil
		}
		cur = next
	}
	// Drop grouping objects and delegates: a database object is a parent
	// of everything, and a co-located delegate copies its original's value
	// and label; either would masquerade as the ancestor.
	kept := cur[:0]
	for _, oid := range cur {
		if isDelegate(oid) {
			continue
		}
		lbl, err := a.S.Label(oid)
		if err == nil && !oem.IsGroupingLabel(lbl) {
			kept = append(kept, oid)
		}
	}
	if len(kept) == 0 {
		return oem.NoOID, false, nil
	}
	// Tree assumption: a single ancestor. On DAGs, return the smallest OID
	// deterministically; the generalized maintainer handles multiplicity.
	return oem.SortOIDs(kept)[0], true, nil
}

// ancestorScan finds an object X with path(X, n) = p by scanning all set
// objects and probing downward — O(|DB| · fanout^|p|) in the worst case.
func (a *CentralAccess) ancestorScan(n oem.OID, p pathexpr.Path, scope map[oem.OID]bool) (oem.OID, bool, error) {
	var probe func(oid oem.OID, depth int) bool
	probe = func(oid oem.OID, depth int) bool {
		if depth == len(p) {
			return oid == n
		}
		kids, err := a.S.Children(oid)
		if err != nil {
			return false
		}
		a.touch(1)
		for _, c := range kids {
			if !inScope(scope, c) {
				continue
			}
			lbl, err := a.S.Label(c)
			if err != nil || lbl != p[depth] {
				continue
			}
			if probe(c, depth+1) {
				return true
			}
		}
		return false
	}
	for _, oid := range a.S.OIDs() {
		if !inScope(scope, oid) {
			continue
		}
		if isDelegate(oid) {
			continue
		}
		if lbl, err := a.S.Label(oid); err != nil || oem.IsGroupingLabel(lbl) {
			continue
		}
		if probe(oid, 0) {
			return oid, true, nil
		}
	}
	return oem.NoOID, false, nil
}

// EvalCond implements BaseAccess: the objects in n.p satisfying cond.
func (a *CentralAccess) EvalCond(n oem.OID, p pathexpr.Path, cond CondTest) ([]oem.OID, error) {
	if a.Stats != nil {
		a.Stats.EvalCalls++
	}
	scope, err := a.scope()
	if err != nil {
		return nil, err
	}
	if !inScope(scope, n) {
		return nil, nil
	}
	g := &query.ReaderGraph{Reader: a.S, Scope: scope, Visit: func() { a.touch(1) }}
	reached := pathexpr.EvalPath(g, []oem.OID{n}, p)
	var out []oem.OID
	for _, oid := range reached {
		o, ok := a.S.Borrow(oid)
		if !ok {
			continue
		}
		a.touch(1)
		if cond.HoldsObject(o) {
			out = append(out, oid)
		}
	}
	return out, nil
}

// isDelegate reports whether an OID is a semantic delegate OID. Base OIDs
// produced by this library never contain dots, so the check is structural.
func isDelegate(oid oem.OID) bool {
	_, _, ok := SplitDelegateOID(oid)
	return ok
}

// ErrTreeViolation reports that a maintainer built for tree bases observed
// graph-shaped data it cannot handle.
var ErrTreeViolation = fmt.Errorf("core: base data violates the tree assumption")
