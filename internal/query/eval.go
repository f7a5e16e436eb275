package query

import (
	"fmt"
	"slices"

	"gsv/internal/oem"
	"gsv/internal/pathexpr"
	"gsv/internal/store"
)

// Stats counts the work done by one evaluation; the benchmark harness uses
// it to compare query strategies (e.g. swizzled versus unswizzled views).
type Stats struct {
	// ObjectsVisited counts the objects expanded during path traversals.
	ObjectsVisited int
}

// Evaluator runs queries against a store — either a live *store.Store or a
// pinned *store.Snapshot (any store.Reader). Evaluation is read-only and
// reads one version: Eval pins a live store's current version for the
// duration of the call, so every answer is point-in-time consistent while
// writers race ahead.
type Evaluator struct {
	Store store.Reader
	// Stats, when non-nil, accumulates evaluation work counters.
	Stats *Stats
	// Resolve, when non-nil, maps each OID encountered while following
	// edges before it is looked up. Materialized views use it to redirect
	// base OIDs in unswizzled delegate values to the delegates themselves
	// ("check if the delegate for P3 is in MVJ", Section 3.2).
	Resolve func(oem.OID) oem.OID
}

// NewEvaluator returns an evaluator over s: a live store or a snapshot.
func NewEvaluator(s store.Reader) *Evaluator { return &Evaluator{Store: s} }

// ReaderGraph adapts a store.Reader — a live store or a pinned snapshot —
// to pathexpr.Graph. It reads borrowed objects (store.Reader.Borrow), so
// each expanded object and each child label costs one trie probe and no
// copy, and it refills one neighbor buffer per Out call. A ReaderGraph
// serves one evaluation at a time.
type ReaderGraph struct {
	Reader store.Reader
	// Scope, when non-nil, is a WITHIN clause's member set: objects outside
	// it are completely ignored — neither traversed nor returned.
	Scope map[oem.OID]bool
	// Resolve, when non-nil, maps each child OID before it is looked up.
	Resolve func(oem.OID) oem.OID
	// Visit, when non-nil, is called once per in-scope object expanded.
	Visit func()

	nbs []pathexpr.Neighbor
}

// Out implements pathexpr.Graph. Dangling child OIDs are not traversable
// and are skipped.
func (g *ReaderGraph) Out(oid oem.OID) []pathexpr.Neighbor {
	if g.Scope != nil && !g.Scope[oid] {
		return nil
	}
	o, ok := g.Reader.Borrow(oid)
	if !ok {
		return nil
	}
	if g.Visit != nil {
		g.Visit()
	}
	g.nbs = g.nbs[:0]
	for _, c := range o.Set {
		if g.Resolve != nil {
			c = g.Resolve(c)
		}
		if g.Scope != nil && !g.Scope[c] {
			continue
		}
		if child, ok := g.Reader.Borrow(c); ok {
			g.nbs = append(g.nbs, pathexpr.Neighbor{Label: child.Label, To: c})
		}
	}
	return g.nbs
}

// Eval evaluates the query and returns the answer's member OIDs, sorted.
// The answer is not stored; see EvalToObject for the paper's reified
// <ANS, answer, set, ...> form.
func (ev *Evaluator) Eval(q *Query) ([]oem.OID, error) {
	rd := ev.Store
	if s, ok := rd.(*store.Store); ok {
		snap := s.Snapshot()
		defer snap.Close()
		rd = snap
	}
	var scope map[oem.OID]bool
	if q.Within != "" {
		m, err := rd.DatabaseMembers(q.Within)
		if err != nil {
			return nil, fmt.Errorf("query: WITHIN %s: %w", q.Within, err)
		}
		// The database object itself is in scope, so it can serve as the
		// query's entry point (e.g. SELECT MVJ.professor WITHIN MVJ).
		m[q.Within] = true
		scope = m
	}
	g := &ReaderGraph{Reader: rd, Scope: scope, Resolve: ev.Resolve}
	if ev.Stats != nil {
		g.Visit = func() { ev.Stats.ObjectsVisited++ }
	}
	holds, err := compile(q.Where, g)
	if err != nil {
		return nil, err
	}

	var members []oem.OID
	for _, item := range q.Selects {
		if scope != nil && !scope[item.Entry] {
			continue // the entry point itself is ignored outside the scope
		}
		if !rd.Has(item.Entry) {
			return nil, fmt.Errorf("query: entry point %s: %w", item.Entry, store.ErrNotFound)
		}
		for _, x := range pathexpr.Eval(g, []oem.OID{item.Entry}, item.Path) {
			if holds(item.Binder, x) {
				members = append(members, x)
			}
		}
	}
	if len(q.Selects) > 1 {
		// Items may select the same object; the answer is a set.
		members = slices.Compact(oem.SortOIDs(members))
	}

	if q.AnsInt != "" {
		keep, err := rd.DatabaseMembers(q.AnsInt)
		if err != nil {
			return nil, fmt.Errorf("query: ANS INT %s: %w", q.AnsInt, err)
		}
		filtered := members[:0]
		for _, m := range members {
			if keep[m] {
				filtered = append(filtered, m)
			}
		}
		members = filtered
	}
	return members, nil
}

// condFunc reports whether the condition holds for candidate x bound to
// binder.
type condFunc func(binder string, x oem.OID) bool

// compile turns the condition tree into a condFunc once per Eval, so each
// condition path is classified as constant or not once rather than once
// per candidate. Conditions on other binders are vacuously true for a
// candidate: with the multi-select extension each item contributes
// independently, and a well-formed query uses one binder per item's
// conditions.
func compile(c Cond, g *ReaderGraph) (condFunc, error) {
	switch v := c.(type) {
	case nil:
		return func(string, oem.OID) bool { return true }, nil
	case *Compare:
		return compileCompare(v, g), nil
	case *And:
		return compileAll(v.Conds, g, false)
	case *Or:
		return compileAll(v.Conds, g, true)
	default:
		return nil, fmt.Errorf("query: unknown condition %T", c)
	}
}

// compileAll compiles a conjunction (or false) or a disjunction (or
// true), which stops at the first sub-condition that evaluates to or.
func compileAll(conds []Cond, g *ReaderGraph, or bool) (condFunc, error) {
	subs := make([]condFunc, len(conds))
	for i, sub := range conds {
		f, err := compile(sub, g)
		if err != nil {
			return nil, err
		}
		subs[i] = f
	}
	return func(binder string, x oem.OID) bool {
		for _, f := range subs {
			if f(binder, x) == or {
				return or
			}
		}
		return !or
	}, nil
}

// compileCompare implements the paper's cond(): the condition holds when
// any object in X.cond_path satisfies the comparison. OpExists is
// satisfied by any reached object; other operators require an atomic
// value, read borrowed.
func compileCompare(c *Compare, g *ReaderGraph) condFunc {
	reach := func(x oem.OID) []oem.OID { return pathexpr.Eval(g, []oem.OID{x}, c.Path) }
	if p, ok := pathexpr.IsConst(pathexpr.Normalize(c.Path)); ok {
		reach = func(x oem.OID) []oem.OID { return pathexpr.EvalPath(g, []oem.OID{x}, p) }
	}
	return func(binder string, x oem.OID) bool {
		if c.Binder != binder {
			return true
		}
		for _, oid := range reach(x) {
			if c.Op == OpExists {
				return true
			}
			if o, ok := g.Reader.Borrow(oid); ok && o.IsAtomic() && c.Op.Apply(o.Atom, c.Literal) {
				return true
			}
		}
		return false
	}
}

// EvalToObject evaluates the query and stores the answer as the paper's
// <ANS, answer, set, value(ANS)> object, returning its OID.
func (ev *Evaluator) EvalToObject(q *Query) (oem.OID, error) {
	w, ok := ev.Store.(*store.Store)
	if !ok {
		return oem.NoOID, fmt.Errorf("query: EvalToObject needs a writable store, have %T", ev.Store)
	}
	members, err := ev.Eval(q)
	if err != nil {
		return oem.NoOID, err
	}
	oid := w.GenOID("ANS")
	if err := w.Put(oem.NewSet(oid, "answer", members...)); err != nil {
		return oem.NoOID, err
	}
	return oid, nil
}
