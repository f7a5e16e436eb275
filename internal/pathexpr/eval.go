package pathexpr

import (
	"slices"
	"sort"

	"gsv/internal/oem"
)

// Neighbor is one outgoing edge of a set object: the child's OID together
// with the child's label (OEM edges are unlabeled; path labels name the
// child object).
type Neighbor struct {
	Label string
	To    oem.OID
}

// Graph abstracts the data a path evaluation traverses. Implementations
// return the outgoing neighbors of an object, or nil for atomic, missing or
// out-of-scope objects (the WITHIN clause is implemented by an adapter that
// returns nil outside the database). Eval reads each returned slice before
// its next Out call and never keeps it, so an implementation may reuse one
// buffer across calls.
type Graph interface {
	Out(oem.OID) []Neighbor
}

// GraphFunc adapts a function to the Graph interface.
type GraphFunc func(oem.OID) []Neighbor

// Out calls the function.
func (f GraphFunc) Out(oid oem.OID) []Neighbor { return f(oid) }

// Eval computes the union of N.p over all starting objects N and all
// instances p of e — the paper's N.e. Results are returned sorted and
// duplicate-free; starting objects appear in the result when e is
// nullable.
//
// A constant expression — every simple view's sel_path and cond_path
// (Section 4.2) — is walked level by level (EvalPath). Any other
// expression runs a product search over (object, residual-expression)
// pairs using ACI-normalized Brzozowski derivatives, which keeps the
// state space finite and makes the evaluation safe on cyclic graphs.
func Eval(g Graph, start []oem.OID, e Expr) []oem.OID {
	e = Normalize(e)
	if p, ok := IsConst(e); ok {
		return EvalPath(g, start, p)
	}
	return product(g, start, e)
}

// EvalPath computes N.p for a constant path: the objects reached from any
// start by following exactly the labels of p. It walks one label per
// level, keeping each level's frontier sorted and duplicate-free, so an
// object shared by several parents (a DAG) is expanded once per level and
// a cycle cannot loop: the walk ends after len(p) levels.
func EvalPath(g Graph, start []oem.OID, p Path) []oem.OID {
	cur := sortedSet(append([]oem.OID(nil), start...))
	var next []oem.OID
	for _, label := range p {
		next = next[:0]
		for _, oid := range cur {
			for _, nb := range g.Out(oid) {
				if nb.Label == label {
					next = append(next, nb.To)
				}
			}
		}
		cur, next = sortedSet(next), cur
	}
	return cur
}

// sortedSet sorts oids and drops duplicates in place.
func sortedSet(oids []oem.OID) []oem.OID {
	slices.Sort(oids)
	return slices.Compact(oids)
}

// product is Eval's search for non-constant expressions; e is normalized.
func product(g Graph, start []oem.OID, e Expr) []oem.OID {
	if e.isEmpty() {
		return nil
	}
	type state struct {
		oid  oem.OID
		expr string
	}
	derivs := map[string]map[string]Expr{} // expr string -> label -> residual
	exprs := map[string]Expr{e.String(): e}

	residual := func(cur Expr, label string) Expr {
		key := cur.String()
		byLabel := derivs[key]
		if byLabel == nil {
			byLabel = map[string]Expr{}
			derivs[key] = byLabel
		}
		d, ok := byLabel[label]
		if !ok {
			d = Normalize(cur.derive(label))
			byLabel[label] = d
			exprs[d.String()] = d
		}
		return d
	}

	seen := map[state]bool{}
	result := map[oem.OID]bool{}
	var queue []state
	for _, n := range start {
		st := state{n, e.String()}
		if !seen[st] {
			seen[st] = true
			queue = append(queue, st)
		}
	}
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		cur := exprs[st.expr]
		if cur.nullable() {
			result[st.oid] = true
		}
		for _, nb := range g.Out(st.oid) {
			d := residual(cur, nb.Label)
			if d.isEmpty() {
				continue
			}
			next := state{nb.To, d.String()}
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	out := make([]oem.OID, 0, len(result))
	for oid := range result {
		out = append(out, oid)
	}
	return oem.SortOIDs(out)
}

// Normalize rewrites e into an ACI-canonical form: alternations are
// flattened, sorted and deduplicated, and sequences are right-associated.
// Two expressions denoting the same language after these rewrites render to
// the same string, which Eval uses as a state key. Brzozowski's theorem
// guarantees that the set of ACI-normalized derivatives of any expression
// is finite, which bounds Eval's product state space.
func Normalize(e Expr) Expr {
	switch v := e.(type) {
	case seqExpr:
		// Flatten to a slice, normalize elements, rebuild right-associated.
		var parts []Expr
		flattenSeq(e, &parts)
		for i := range parts {
			parts[i] = Normalize(parts[i])
		}
		return Seq(parts...)
	case altExpr:
		var branches []Expr
		flattenAlt(e, &branches)
		norm := make([]Expr, 0, len(branches))
		seen := map[string]bool{}
		for _, b := range branches {
			nb := Normalize(b)
			if nb.isEmpty() {
				continue
			}
			key := nb.String()
			if !seen[key] {
				seen[key] = true
				norm = append(norm, nb)
			}
		}
		sort.Slice(norm, func(i, j int) bool { return norm[i].String() < norm[j].String() })
		return Alt(norm...)
	case starExpr:
		return Star(Normalize(v.body))
	default:
		return e
	}
}

func flattenSeq(e Expr, out *[]Expr) {
	if s, ok := e.(seqExpr); ok {
		flattenSeq(s.left, out)
		flattenSeq(s.right, out)
		return
	}
	*out = append(*out, e)
}

func flattenAlt(e Expr, out *[]Expr) {
	if a, ok := e.(altExpr); ok {
		flattenAlt(a.left, out)
		flattenAlt(a.right, out)
		return
	}
	*out = append(*out, e)
}
