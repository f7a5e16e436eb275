// Package oem implements the object model underlying a graph structured
// database (GSDB), following the OEM model of Papakonstantinou,
// Garcia-Molina and Widom as used by Zhuge and Garcia-Molina in "Graph
// Structured Views and Their Incremental Maintenance" (ICDE 1998).
//
// Every object carries four fields: an OID (a universally unique
// identifier), a label (a descriptive, non-unique string), a type, and a
// value. An object is either atomic — its value is a single Atom such as an
// integer or a string — or a set object, whose value is a set of OIDs of
// other objects. The directed edges implied by set values give the database
// its graph structure.
package oem

import (
	"fmt"
	"slices"
	"strings"
)

// OID is a universally unique object identifier. The paper treats OIDs as
// opaque; examples use meaningful names such as "P1" or "ROOT". Materialized
// views concatenate a view OID and a base OID with a dot (semantic OIDs), so
// base OIDs produced by this library never contain dots.
type OID string

// NoOID is the zero OID, returned when an object lookup fails.
const NoOID OID = ""

// Kind distinguishes atomic objects from set objects.
type Kind int

const (
	// KindAtomic marks an object whose value is a single Atom.
	KindAtomic Kind = iota
	// KindSet marks an object whose value is a set of OIDs.
	KindSet
)

// String returns "atomic" or "set".
func (k Kind) String() string {
	switch k {
	case KindAtomic:
		return "atomic"
	case KindSet:
		return "set"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// TypeSet is the type field value shared by all set objects.
const TypeSet = "set"

// IsGroupingLabel reports whether a label marks a *grouping* object — a
// database object, view object, query answer or authorization union. The
// paper calls database objects "simply a conceptual aid": they group every
// OID of a database and therefore violate the tree structure that the
// maintenance algorithms' path and ancestor functions assume. Path and
// ancestor computations skip grouping objects as parents unless the
// grouping object is itself the traversal root (databases and views are
// legitimate query entry points).
func IsGroupingLabel(label string) bool {
	switch label {
	case "database", "view", "mview", "answer", "authorized":
		return true
	default:
		return false
	}
}

// Object is a single OEM object. Exactly one of Atom and Set is meaningful,
// selected by Kind. Set members are kept duplicate-free in insertion order;
// the order is not semantically significant (values are sets) but keeps
// output and tests deterministic.
type Object struct {
	// OID uniquely identifies the object.
	OID OID
	// Label explains the meaning of the object; it need not be unique.
	Label string
	// Kind selects between the Atom and Set fields.
	Kind Kind
	// Type names the object's type: an atomic type such as "integer",
	// "string" or "dollar", or TypeSet for set objects. For atomic objects
	// the type is descriptive; comparisons use the Atom representation.
	Type string
	// Atom holds the value of an atomic object.
	Atom Atom
	// Set holds the value of a set object: the OIDs of its children.
	Set []OID
}

// NewAtom returns an atomic object. The type field is derived from the atom
// when typ is empty.
func NewAtom(oid OID, label string, a Atom) *Object {
	return &Object{OID: oid, Label: label, Kind: KindAtomic, Type: a.TypeName(), Atom: a}
}

// NewTypedAtom returns an atomic object with an explicit type name such as
// "dollar"; the representation is still carried by the atom.
func NewTypedAtom(oid OID, label, typ string, a Atom) *Object {
	return &Object{OID: oid, Label: label, Kind: KindAtomic, Type: typ, Atom: a}
}

// NewSet returns a set object whose value is the given OIDs. Duplicates are
// removed, keeping the first occurrence.
func NewSet(oid OID, label string, members ...OID) *Object {
	o := &Object{OID: oid, Label: label, Kind: KindSet, Type: TypeSet}
	for _, m := range members {
		o.Add(m)
	}
	return o
}

// IsSet reports whether the object is a set object.
func (o *Object) IsSet() bool { return o.Kind == KindSet }

// IsAtomic reports whether the object is an atomic object.
func (o *Object) IsAtomic() bool { return o.Kind == KindAtomic }

// Contains reports whether oid is a member of a set object's value. It is
// always false for atomic objects.
func (o *Object) Contains(oid OID) bool {
	return o.Kind == KindSet && slices.Contains(o.Set, oid)
}

// Add appends oid to a set object's value if not already present and
// reports whether the value changed. Calling Add on an atomic object
// panics: it indicates a logic error in the caller.
func (o *Object) Add(oid OID) bool {
	if o.Kind != KindSet {
		panic(fmt.Sprintf("oem: Add on atomic object %s", o.OID))
	}
	if slices.Contains(o.Set, oid) {
		return false
	}
	o.Set = append(o.Set, oid)
	return true
}

// Remove deletes oid from a set object's value and reports whether the
// value changed. Calling Remove on an atomic object panics.
func (o *Object) Remove(oid OID) bool {
	if o.Kind != KindSet {
		panic(fmt.Sprintf("oem: Remove on atomic object %s", o.OID))
	}
	i := slices.Index(o.Set, oid)
	if i < 0 {
		return false
	}
	o.Set = slices.Delete(o.Set, i, i+1)
	return true
}

// Replace substitutes member old with new in a set object's value,
// preserving position, and reports whether a substitution happened. It is
// used by edge swizzling, which rewrites base OIDs to delegate OIDs.
func (o *Object) Replace(old, new OID) bool {
	if o.Kind != KindSet {
		return false
	}
	i := slices.Index(o.Set, old)
	if i < 0 {
		return false
	}
	if slices.Contains(o.Set, new) {
		// The replacement is already present; drop the old member instead of
		// introducing a duplicate.
		o.Set = slices.Delete(o.Set, i, i+1)
		return true
	}
	o.Set[i] = new
	return true
}

// Clone returns a deep copy of the object.
func (o *Object) Clone() *Object {
	c := *o
	if o.Set != nil {
		c.Set = slices.Clone(o.Set)
	}
	return &c
}

// Equal reports whether two objects have the same OID, label, kind, type
// and value. Set values compare as sets: order is ignored.
func (o *Object) Equal(p *Object) bool {
	if o == nil || p == nil {
		return o == p
	}
	if o.OID != p.OID || o.Label != p.Label || o.Kind != p.Kind || o.Type != p.Type {
		return false
	}
	if o.Kind == KindAtomic {
		return o.Atom.Equal(p.Atom)
	}
	return SameMembers(o.Set, p.Set)
}

// SameMembers reports whether two OID slices contain the same set of OIDs,
// ignoring order. Inputs are assumed duplicate-free, as set values are.
func SameMembers(a, b []OID) bool {
	if len(a) != len(b) {
		return false
	}
	as := slices.Clone(a)
	bs := slices.Clone(b)
	slices.Sort(as)
	slices.Sort(bs)
	return slices.Equal(as, bs)
}

// String renders the object in the paper's angle-bracket notation, e.g.
// <P1, professor, set, {N1,A1,S1,P3}> or <A1, age, integer, 45>.
func (o *Object) String() string {
	if o == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<%s, %s, %s, ", o.OID, o.Label, o.Type)
	if o.Kind == KindAtomic {
		b.WriteString(o.Atom.String())
	} else {
		b.WriteByte('{')
		for i, m := range o.Set {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(string(m))
		}
		b.WriteByte('}')
	}
	b.WriteByte('>')
	return b.String()
}

// EncodedSize estimates the wire size of the object in bytes. The warehouse
// transport uses it to account for bytes shipped between sources and the
// warehouse; the estimate counts field contents plus small per-field
// framing, which is enough for the relative comparisons the benchmarks make.
func (o *Object) EncodedSize() int {
	n := len(o.OID) + len(o.Label) + len(o.Type) + 4 // framing
	if o.Kind == KindAtomic {
		n += o.Atom.EncodedSize()
	} else {
		for _, m := range o.Set {
			n += len(m) + 1
		}
	}
	return n
}

// SortOIDs sorts a slice of OIDs in place and returns it, for deterministic
// output in tests and tools.
func SortOIDs(oids []OID) []OID {
	slices.Sort(oids)
	return oids
}
