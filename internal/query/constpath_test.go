package query

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gsv/internal/oem"
	"gsv/internal/pathexpr"
	"gsv/internal/store"
)

// randomGSDB builds a small base with cycles and self loops, children
// shared by several parents, a three-label alphabet (so labels repeat
// among siblings), dangling child OIDs, and two database objects DB1 and
// DB2 over random subsets for WITHIN and ANS INT.
func randomGSDB(rng *rand.Rand) *store.Store {
	const sets, atoms = 8, 10
	labels := []string{"a", "b", "c"}
	s := store.NewDefault()
	var all []oem.OID
	for i := 0; i < atoms; i++ {
		oid := oem.OID(fmt.Sprintf("v%d", i))
		s.MustPut(oem.NewAtom(oid, labels[rng.Intn(len(labels))], oem.Int(int64(rng.Intn(10)))))
		all = append(all, oid)
	}
	for i := 0; i < sets; i++ {
		var kids []oem.OID
		for e := 3 + rng.Intn(4); e > 0; e-- {
			switch rng.Intn(6) {
			case 0:
				kids = append(kids, oem.OID(fmt.Sprintf("gone%d", rng.Intn(2))))
			case 1, 2:
				kids = append(kids, oem.OID(fmt.Sprintf("v%d", rng.Intn(atoms))))
			default:
				kids = append(kids, oem.OID(fmt.Sprintf("n%d", rng.Intn(sets))))
			}
		}
		oid := oem.OID(fmt.Sprintf("n%d", i))
		s.MustPut(oem.NewSet(oid, labels[rng.Intn(len(labels))], kids...))
		all = append(all, oid)
	}
	for _, db := range []oem.OID{"DB1", "DB2"} {
		members := []oem.OID{"n0"}
		for _, oid := range all {
			if rng.Intn(4) != 0 {
				members = append(members, oid)
			}
		}
		s.MustPut(oem.NewSet(db, "database", members...))
	}
	return s
}

// Path renderings for the differential test. constForm is the constant
// path itself; starForm and altForm add an alternative through the label
// zz, which no object carries, so they answer the same on the data while
// taking the product search.
func constForm(p pathexpr.Path) string { return strings.Join(p, ".") }

func starForm(p pathexpr.Path) string {
	if len(p) == 0 {
		return "(zz)*"
	}
	return constForm(p) + ".(zz)*"
}

func altForm(p pathexpr.Path) string {
	if len(p) == 0 {
		return starForm(p)
	}
	return "(" + p[0] + "|zz)" + strings.TrimPrefix(constForm(p), p[0])
}

func randomPath(rng *rand.Rand, min, max int) pathexpr.Path {
	p := make(pathexpr.Path, min+rng.Intn(max-min+1))
	for i := range p {
		p[i] = []string{"a", "b", "c"}[rng.Intn(3)]
	}
	return p
}

// TestEvalConstPathMatchesProductForms is the query-level differential
// test for the constant-path walk: over seeded random bases, with and
// without a Resolve hook, WITHIN and ANS INT, a query whose selection and
// condition paths are constant must answer exactly like its forms that
// take the product search.
func TestEvalConstPathMatchesProductForms(t *testing.T) {
	forms := [][2]func(pathexpr.Path) string{
		{constForm, constForm},
		{starForm, altForm},
		{altForm, starForm},
	}
	target := func(p string) string {
		if p == "" {
			return "X" // an empty constant condition path
		}
		return "X." + p
	}
	answered, cases := 0, 0
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomGSDB(rng)
		redirect := map[oem.OID]oem.OID{}
		for i := 0; i < 3; i++ {
			redirect[oem.OID(fmt.Sprintf("n%d", rng.Intn(8)))] = oem.OID(fmt.Sprintf("n%d", rng.Intn(8)))
		}
		snap := s.Snapshot()
		for k := 0; k < 6; k++ {
			sel := randomPath(rng, 1, 2)
			c1, c2 := randomPath(rng, 0, 2), randomPath(rng, 0, 2)
			lit := rng.Intn(10)
			var clauses string
			if rng.Intn(2) == 0 {
				clauses += " WITHIN DB1"
			}
			if rng.Intn(2) == 0 {
				clauses += " ANS INT DB2"
			}
			queries := make([]*Query, len(forms))
			for i, f := range forms {
				text := fmt.Sprintf("SELECT n0.%s X WHERE %s > %d OR EXISTS %s%s",
					f[0](sel), target(f[1](c1)), lit, target(f[0](c2)), clauses)
				q, err := Parse(text)
				if err != nil {
					t.Fatalf("seed %d: %q: %v", seed, text, err)
				}
				if _, isConst := pathexpr.IsConst(pathexpr.Normalize(q.Selects[0].Path)); isConst != (i == 0) {
					t.Fatalf("seed %d: %q: selection path constant = %v", seed, text, isConst)
				}
				queries[i] = q
			}
			for _, resolve := range []bool{false, true} {
				ev := NewEvaluator(snap)
				if resolve {
					ev.Resolve = func(oid oem.OID) oem.OID {
						if to, ok := redirect[oid]; ok {
							return to
						}
						return oid
					}
				}
				want, err := ev.Eval(queries[0])
				if err != nil {
					t.Fatalf("seed %d: %s: %v", seed, queries[0], err)
				}
				cases++
				if len(want) > 0 {
					answered++
				}
				for _, q := range queries[1:] {
					got, err := ev.Eval(q)
					if err != nil {
						t.Fatalf("seed %d: %s: %v", seed, q, err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d (resolve %v): %s = %v, constant form %s = %v", seed, resolve, q, got, queries[0], want)
					}
				}
			}
		}
		snap.Close()
	}
	if answered*5 < cases {
		t.Fatalf("only %d of %d cases had a non-empty answer: the test is too weak", answered, cases)
	}
}
