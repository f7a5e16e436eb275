package query

import (
	"slices"
	"testing"

	"gsv/internal/oem"
	"gsv/internal/pathexpr"
)

// FuzzParse checks that the query parser never panics, and that any input
// it accepts has a String rendering the parser accepts again, unchanged
// (a fixed point). Run with `go test -fuzz=FuzzParse ./internal/query`;
// under plain `go test` the seed corpus doubles as a regression test.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT ROOT.professor X WHERE X.age > 40",
		"SELECT ROOT.* X WHERE X.name = 'John' WITHIN PERSON",
		"SELECT A.a X, B.(b|c)*.d Y WHERE X.v >= 2.5 AND Y.w != true ANS INT D",
		"SELECT R.p X WHERE EXISTS X.q OR X.r CONTAINS 'z'",
		"select root.? x where x <= -1 within db ans int db2",
		"SELECT",
		"SELECT ROOT..a X",
		"SELECT ROOT.a X WHERE",
		"DEFINE VIEW V AS: SELECT ROOT.a X",
		"\x00\xff",
		"SELECT R.a X WHERE X.b = 'unterminated",
		"SELECT REL.r0.tuple X WHERE X.age > 40",
		"SELECT n0.(a|zz).b X WHERE X.c.(zz)* > 5 OR EXISTS X WITHIN DB1 ANS INT DB2",
		"SELECT n0.a.b.(zz)* X WHERE X > 3 AND EXISTS X.(a|zz)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		s1 := q.String()
		q2, err := Parse(s1)
		if err != nil {
			t.Fatalf("accepted %q but rejected its rendering %q: %v", input, s1, err)
		}
		if s2 := q2.String(); s1 != s2 {
			t.Fatalf("String not a fixed point: %q -> %q", s1, s2)
		}
	})
}

// fuzzGraph is a small cyclic graph with shared children and repeated
// labels for FuzzParsePathExpr's evaluation check.
var fuzzGraph = pathexpr.GraphFunc(func(oid oem.OID) []pathexpr.Neighbor {
	return map[oem.OID][]pathexpr.Neighbor{
		"R": {{Label: "a", To: "A"}, {Label: "a", To: "B"}, {Label: "b", To: "C"}},
		"A": {{Label: "b", To: "C"}, {Label: "c", To: "R"}, {Label: "d", To: "GONE"}},
		"B": {{Label: "b", To: "C"}, {Label: "a", To: "B"}},
		"C": {{Label: "c", To: "A"}, {Label: "d", To: "D"}},
	}[oid]
})

// FuzzParsePathExpr checks the path-expression parser the same way, and
// additionally that accepted expressions survive Normalize without
// changing acceptance of a probe path, and that evaluation agrees with
// the expression's alternation with a label no object carries — which
// sends a constant expression's twin through the product search.
func FuzzParsePathExpr(f *testing.F) {
	seeds := []string{
		"", "a", "a.b", "*", "?", "a.*", "(a|b).c", "a*", "(a.b)*", "a.(b|c)*.d",
		"((((a))))", "a|", "(a", "a..b", "*.?.*",
		"a.b.c", "a.(b.c)", "(a|zz).b", "a.b.(zz)*", "a.a.b.c.d",
	}
	for _, s := range seeds {
		f.Add(s, "a.b")
	}
	f.Fuzz(func(t *testing.T, input, probe string) {
		e, err := pathexpr.Parse(input)
		if err != nil {
			return
		}
		rendered := e.String()
		if rendered == "∅" || rendered == "ε" {
			return // not input syntax by design
		}
		e2, err := pathexpr.Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rejected its rendering %q: %v", input, rendered, err)
		}
		p, perr := pathexpr.ParsePath(probe)
		if perr != nil {
			return
		}
		if pathexpr.Matches(e, p) != pathexpr.Matches(e2, p) {
			t.Fatalf("rendering changed the language: %q vs %q on %q", input, rendered, probe)
		}
		n := pathexpr.Normalize(e)
		if pathexpr.Matches(e, p) != pathexpr.Matches(n, p) {
			t.Fatalf("Normalize changed acceptance of %q for %q", probe, input)
		}
		start := []oem.OID{"R", "B"}
		got := pathexpr.Eval(fuzzGraph, start, e)
		want := pathexpr.Eval(fuzzGraph, start, pathexpr.Alt(e, pathexpr.Label("zz")))
		if !slices.Equal(got, want) {
			t.Fatalf("Eval(%q) = %v, but %v with an absent alternative", input, got, want)
		}
	})
}
