package main

import (
	"fmt"
	"math/rand"

	"gsv/internal/oem"
	"gsv/internal/store"
	"gsv/internal/workload"
)

// Every workload runs over workload.RelationLike: REL with relations
// r0..r3, each holding tuples with an integer "age" field and string
// fields f1..f4. The generators below address objects by the OIDs
// RelationLike assigns, so op lists are built without touching the store
// (except to read initial field values, outside the timed region).
const (
	relations      = 4
	fieldsPerTuple = 5
)

func tupleOID(r, t int) oem.OID { return oem.OID(fmt.Sprintf("T%d_%d", r, t)) }

// fieldOID names field f (0 is age) of tuple t in relation r.
func fieldOID(r, t, f int) oem.OID {
	if f == 0 {
		return oem.OID(fmt.Sprintf("F%d_%d_age", r, t))
	}
	return oem.OID(fmt.Sprintf("F%d_%d_%d", r, t, f))
}

func fieldLabel(f int) string {
	if f == 0 {
		return "age"
	}
	return fmt.Sprintf("f%d", f)
}

// buildFixture creates the relation-like base store.
func buildFixture(tuples int, seed int64) *store.Store {
	s := store.NewDefault()
	workload.RelationLike(s, workload.RelationConfig{
		Relations: relations, TuplesPerRelation: tuples, FieldsPerTuple: fieldsPerTuple, Seed: seed,
	})
	return s
}

// flipValue returns a new value for field f that flips membership in
// views selecting age > 30/50/70/95 or f = 'v7' about half the time.
func flipValue(rng *rand.Rand, f int) oem.Atom {
	if f == 0 {
		return oem.Int(int64(rng.Intn(100)))
	}
	if rng.Intn(2) == 0 {
		return oem.String_("v7")
	}
	return oem.String_(fmt.Sprintf("v%d", rng.Intn(7)))
}

type opKind uint8

const (
	opModify opKind = iota
	opPut
	opInsert
	opDelete
)

// op is one facade mutation: modify(n1, val), put(<n1, label, val>),
// insert(n1, n2) or delete(n1, n2).
type op struct {
	kind   opKind
	n1, n2 oem.OID
	label  string
	val    oem.Atom
}

// embeddedGen generates facade mutations: 70% Modify of a field, 20%
// PutAtom of a fresh field followed by its Insert under a tuple, and 10%
// Delete of an edge the generator inserted earlier. It is stateful, so a
// run can ask for more ops between timed stretches.
type embeddedGen struct {
	rng    *rand.Rand
	tuples int
	next   int
	live   []insertedEdge
	// pending holds generated ops not yet applied; the generator's state
	// assumes they will be, in order.
	pending []op
}

type insertedEdge struct {
	tuple, atom oem.OID
	field       int
}

func newEmbeddedGen(seed int64, tuples int) *embeddedGen {
	return &embeddedGen{rng: rand.New(rand.NewSource(seed)), tuples: tuples}
}

// fill returns the next n (or n+1, when a put/insert pair straddles the
// end) mutations.
func (g *embeddedGen) fill(n int) []op {
	rng := g.rng
	ops := make([]op, 0, n+1)
	for len(ops) < n {
		r, t, f := rng.Intn(relations), rng.Intn(g.tuples), rng.Intn(fieldsPerTuple)
		switch p := rng.Intn(100); {
		case p < 70 || (p >= 90 && len(g.live) == 0):
			target := fieldOID(r, t, f)
			if len(g.live) > 0 && rng.Intn(10) == 0 {
				in := g.live[rng.Intn(len(g.live))]
				target, f = in.atom, in.field
			}
			ops = append(ops, op{kind: opModify, n1: target, val: flipValue(rng, f)})
		case p < 90:
			atom := oem.OID(fmt.Sprintf("N%d", g.next))
			g.next++
			ops = append(ops,
				op{kind: opPut, n1: atom, label: fieldLabel(f), val: flipValue(rng, f)},
				op{kind: opInsert, n1: tupleOID(r, t), n2: atom})
			g.live = append(g.live, insertedEdge{tuple: tupleOID(r, t), atom: atom, field: f})
		default:
			i := rng.Intn(len(g.live))
			ops = append(ops, op{kind: opDelete, n1: g.live[i].tuple, n2: g.live[i].atom})
			g.live[i] = g.live[len(g.live)-1]
			g.live = g.live[:len(g.live)-1]
		}
	}
	return ops
}

// whView is a warehouse view of the serving topology, selecting the
// tuples of one relation by one field.
type whView struct {
	name, query string
	rel, field  int
	// thresh is the age bound (field 0); string fields select 'v7'.
	thresh int64
}

// warehouseViews are the four simple screened views the primary hosts.
var warehouseViews = []whView{
	{"AGE0", "SELECT REL.r0.tuple X WHERE X.age > 30", 0, 0, 30},
	{"AGE1", "SELECT REL.r1.tuple X WHERE X.age > 50", 1, 0, 50},
	{"F1R2", "SELECT REL.r2.tuple X WHERE X.f1 = 'v7'", 2, 1, 0},
	{"F2R3", "SELECT REL.r3.tuple X WHERE X.f2 = 'v7'", 3, 2, 0},
}

// selects reports whether a field value puts its tuple in the view.
func (v whView) selects(a oem.Atom) bool {
	if v.field == 0 {
		return a.I > v.thresh
	}
	return a.S == "v7"
}

// flip returns a value for the view's field with the opposite
// membership of cur.
func (v whView) flip(rng *rand.Rand, cur oem.Atom) oem.Atom {
	if v.field == 0 {
		if v.selects(cur) {
			return oem.Int(rng.Int63n(v.thresh + 1))
		}
		return oem.Int(v.thresh + 1 + rng.Int63n(99-v.thresh))
	}
	if v.selects(cur) {
		return oem.String_(fmt.Sprintf("v%d", rng.Intn(7)))
	}
	return oem.String_("v7")
}

// flipOps pre-generates n Modify updates for the serving topology: 80%
// flip one tuple's membership in one view, 20% modify a field no view
// reads (f4), which screening retires. Initial values come from s.
func flipOps(s *store.Store, seed int64, tuples, n int) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	cur := map[oem.OID]oem.Atom{}
	ops := make([]op, 0, n)
	for len(ops) < n {
		v := warehouseViews[rng.Intn(len(warehouseViews))]
		t := rng.Intn(tuples)
		if rng.Intn(5) == 0 {
			ops = append(ops, op{kind: opModify, n1: fieldOID(v.rel, t, 4), val: flipValue(rng, 4)})
			continue
		}
		oid := fieldOID(v.rel, t, v.field)
		a, ok := cur[oid]
		if !ok {
			o, err := s.Get(oid)
			if err != nil {
				return nil, err
			}
			a = o.Atom
		}
		a = v.flip(rng, a)
		cur[oid] = a
		ops = append(ops, op{kind: opModify, n1: oid, val: a})
	}
	return ops, nil
}
