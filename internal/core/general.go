package core

import (
	"fmt"

	"gsv/internal/oem"
	"gsv/internal/pathexpr"
	"gsv/internal/query"
	"gsv/internal/store"
)

// GeneralMaintainer incrementally maintains views beyond Algorithm 1's
// simple class — the extensions Section 6 sketches: selection paths that
// are general path expressions with wild cards, multiple selection paths,
// AND/OR conditions, and DAG-shaped bases with more than one derivation per
// view member.
//
// Strategy: each update determines a *candidate set* of objects whose
// membership may have changed — for insert/delete(N1,N2) the ancestors of
// N1 (including N1) plus the subtree under N2; for modify(N) the ancestors
// of N (including N). For every candidate Y the maintainer decides current
// membership from scratch — Y is a member iff some path from the entry to Y
// matches a selection expression (tested by walking *up* parent edges
// against the reversed expression, which also handles multiple DAG
// derivations) and the full WHERE condition holds — then issues V_insert or
// V_delete accordingly. This is more work per update than Algorithm 1 but
// far less than recomputation, and it is exact.
//
// GeneralMaintainer requires direct access to a store (the centralized
// setting): candidate discovery needs parent traversal, which the
// warehouse scenarios of Section 5 do not export.
type GeneralMaintainer struct {
	View *MaterializedView
	// Observer, when non-nil, receives the membership deltas each Apply
	// actually performed.
	Observer DeltaObserver
	// access wraps the base store for delegate creation.
	access *CentralAccess
	// scopeOID is the view's WITHIN database, if any.
	scopeOID oem.OID
}

// NewGeneralMaintainer builds a generalized maintainer for mv over its base
// store.
func NewGeneralMaintainer(mv *MaterializedView) (*GeneralMaintainer, error) {
	if !mv.Base.Options().ParentIndex {
		return nil, fmt.Errorf("core: the general maintainer requires a parent index on the base store")
	}
	return &GeneralMaintainer{
		View:     mv,
		access:   NewCentralAccess(mv.Base),
		scopeOID: mv.Query.Within,
	}, nil
}

// Apply implements Maintainer.
func (g *GeneralMaintainer) Apply(u store.Update) error {
	var candidates []oem.OID
	switch u.Kind {
	case store.UpdateCreate:
		return nil
	case store.UpdateInsert, store.UpdateDelete:
		candidates = append(g.ancestorsAndSelf(u.N1), g.subtree(u.N2)...)
	case store.UpdateModify:
		candidates = g.ancestorsAndSelf(u.N1)
	}
	seen := map[oem.OID]bool{}
	var applied Deltas
	for _, y := range candidates {
		if seen[y] {
			continue
		}
		seen[y] = true
		member, changed, err := g.reconcile(y)
		if err != nil {
			return err
		}
		if changed && member {
			applied.Insert = append(applied.Insert, y)
		} else if changed {
			applied.Delete = append(applied.Delete, y)
		}
	}
	if err := refreshDelegate(g.View, u); err != nil {
		return err
	}
	if g.Observer != nil {
		g.Observer(g.View.OID, u, applied)
	}
	return nil
}

// reconcile recomputes Y's membership and updates the view to match; it
// reports the decided membership and whether the view changed.
func (g *GeneralMaintainer) reconcile(y oem.OID) (member, changed bool, err error) {
	member, err = g.isMember(y)
	if err != nil {
		return false, false, err
	}
	if member {
		changed, err = viewInsert(g.View, g.access, y)
		return member, changed, err
	}
	changed, err = viewDelete(g.View, y)
	return member, changed, err
}

// isMember decides whether y currently belongs to the view.
func (g *GeneralMaintainer) isMember(y oem.OID) (bool, error) {
	if !g.View.Base.Has(y) {
		return false, nil
	}
	scope, err := g.scope()
	if err != nil {
		return false, err
	}
	if scope != nil && !scope[y] {
		return false, nil
	}
	q := g.View.Query
	for _, item := range q.Selects {
		if scope != nil && !scope[item.Entry] {
			continue
		}
		ok, err := g.onSelectPath(item.Entry, y, item.Path, scope)
		if err != nil {
			return false, err
		}
		if !ok {
			continue
		}
		holds, err := g.conditionHolds(q.Where, item.Binder, y, scope)
		if err != nil {
			return false, err
		}
		if holds {
			return true, nil
		}
	}
	return false, nil
}

// onSelectPath reports whether some path from entry to y matches expr. It
// evaluates the reversed expression from y over the reversed (parent)
// graph and checks whether the entry is reached — linear in the product of
// graph size and expression size, cycle-safe, and correct on DAGs with any
// number of derivations.
func (g *GeneralMaintainer) onSelectPath(entry, y oem.OID, expr pathexpr.Expr, scope map[oem.OID]bool) (bool, error) {
	rev := pathexpr.Reverse(expr)
	reached := pathexpr.Eval(g.reverseGraph(scope), []oem.OID{y}, rev)
	for _, oid := range reached {
		if oid == entry {
			return true, nil
		}
	}
	return false, nil
}

// reverseGraph walks parent edges; traversing from object o to its parent
// consumes label(o), matching the forward path-label convention.
func (g *GeneralMaintainer) reverseGraph(scope map[oem.OID]bool) pathexpr.Graph {
	return pathexpr.GraphFunc(func(oid oem.OID) []pathexpr.Neighbor {
		if scope != nil && !scope[oid] {
			return nil
		}
		lbl, err := g.View.Base.Label(oid)
		if err != nil {
			return nil
		}
		parents, err := g.View.Base.Parents(oid)
		if err != nil {
			return nil
		}
		nbs := make([]pathexpr.Neighbor, 0, len(parents))
		for _, p := range parents {
			if scope != nil && !scope[p] {
				continue
			}
			nbs = append(nbs, pathexpr.Neighbor{Label: lbl, To: p})
		}
		return nbs
	})
}

// conditionHolds evaluates the full WHERE tree for candidate y.
func (g *GeneralMaintainer) conditionHolds(c query.Cond, binder string, y oem.OID, scope map[oem.OID]bool) (bool, error) {
	if c == nil {
		return true, nil
	}
	switch v := c.(type) {
	case *query.Compare:
		if v.Binder != binder {
			return true, nil
		}
		cond := CondTest{Op: v.Op, Literal: v.Literal}
		reached := pathexpr.Eval(&query.ReaderGraph{Reader: g.View.Base, Scope: scope}, []oem.OID{y}, v.Path)
		for _, oid := range reached {
			if o, ok := g.View.Base.Borrow(oid); ok && cond.HoldsObject(o) {
				return true, nil
			}
		}
		return false, nil
	case *query.And:
		for _, sub := range v.Conds {
			ok, err := g.conditionHolds(sub, binder, y, scope)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case *query.Or:
		for _, sub := range v.Conds {
			ok, err := g.conditionHolds(sub, binder, y, scope)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("core: unknown condition %T", c)
	}
}

func (g *GeneralMaintainer) scope() (map[oem.OID]bool, error) {
	if g.scopeOID == "" {
		return nil, nil
	}
	m, err := g.View.Base.DatabaseMembers(g.scopeOID)
	if err != nil {
		return nil, err
	}
	// The database object itself is in scope, matching the query
	// evaluator's WITHIN semantics.
	m[g.scopeOID] = true
	return m, nil
}

// ancestorsAndSelf returns n and every (transitive) ancestor of n,
// cycle-safe.
func (g *GeneralMaintainer) ancestorsAndSelf(n oem.OID) []oem.OID {
	out := []oem.OID{n}
	seen := map[oem.OID]bool{n: true}
	stack := []oem.OID{n}
	for len(stack) > 0 {
		oid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		parents, err := g.View.Base.Parents(oid)
		if err != nil {
			continue
		}
		for _, p := range parents {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
				stack = append(stack, p)
			}
		}
	}
	return out
}

// subtree returns n and everything reachable from n, cycle-safe.
func (g *GeneralMaintainer) subtree(n oem.OID) []oem.OID {
	out := []oem.OID{n}
	seen := map[oem.OID]bool{n: true}
	stack := []oem.OID{n}
	for len(stack) > 0 {
		oid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		kids, err := g.View.Base.Children(oid)
		if err != nil {
			continue
		}
		for _, c := range kids {
			if !seen[c] && g.View.Base.Has(c) {
				seen[c] = true
				out = append(out, c)
				stack = append(stack, c)
			}
		}
	}
	return out
}
