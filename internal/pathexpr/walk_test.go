package pathexpr

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gsv/internal/oem"
)

// randomGraph builds a small graph with cycles and self loops, children
// shared by several parents, a three-label alphabet (so labels repeat
// among siblings) and edges to dangling OIDs that have no adjacency list.
func randomGraph(rng *rand.Rand) mapGraph {
	const nodes = 10
	labels := []string{"a", "b", "c"}
	g := mapGraph{}
	for i := 0; i < nodes; i++ {
		n := oem.OID(fmt.Sprintf("N%d", i))
		for e := rng.Intn(5); e > 0; e-- {
			to := oem.OID(fmt.Sprintf("N%d", rng.Intn(nodes)))
			if rng.Intn(6) == 0 {
				to = oem.OID(fmt.Sprintf("D%d", rng.Intn(3)))
			}
			g[n] = append(g[n], Neighbor{labels[rng.Intn(len(labels))], to})
		}
	}
	return g
}

// scoped restricts g to scope the way a WITHIN clause does: objects
// outside it are neither expanded nor reached.
func scoped(g Graph, scope map[oem.OID]bool) Graph {
	return GraphFunc(func(oid oem.OID) []Neighbor {
		if !scope[oid] {
			return nil
		}
		var out []Neighbor
		for _, nb := range g.Out(oid) {
			if scope[nb.To] {
				out = append(out, nb)
			}
		}
		return out
	})
}

// resolved redirects edge targets through m, like a materialized view's
// delegate Resolve hook.
func resolved(g Graph, m map[oem.OID]oem.OID) Graph {
	return GraphFunc(func(oid oem.OID) []Neighbor {
		var out []Neighbor
		for _, nb := range g.Out(oid) {
			if to, ok := m[nb.To]; ok {
				nb.To = to
			}
			out = append(out, nb)
		}
		return out
	})
}

// reusing hands out one buffer for every Out call and overwrites it, so
// an evaluation that kept a neighbor slice past the next call would see
// garbage.
func reusing(g Graph) Graph {
	var buf []Neighbor
	return GraphFunc(func(oid oem.OID) []Neighbor {
		for i := range buf {
			buf[i] = Neighbor{"garbage", "GARBAGE"}
		}
		buf = append(buf[:0], g.Out(oid)...)
		return buf
	})
}

// TestEvalPathMatchesProductSearch is the differential test for the
// constant-path walk: on seeded random graphs, seen whole, through a
// scope, through a Resolve mapping and through a reused neighbor buffer,
// EvalPath and Eval must return exactly what the product search returns
// for the same constant expression.
func TestEvalPathMatchesProductSearch(t *testing.T) {
	labels := []string{"a", "b", "c", "d"}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		scope := map[oem.OID]bool{}
		redirect := map[oem.OID]oem.OID{}
		for i := 0; i < 10; i++ {
			n := oem.OID(fmt.Sprintf("N%d", i))
			if rng.Intn(4) != 0 {
				scope[n] = true
			}
			if rng.Intn(5) == 0 {
				redirect[n] = oem.OID(fmt.Sprintf("N%d", rng.Intn(10)))
			}
		}
		views := map[string]Graph{
			"whole":    g,
			"scoped":   scoped(g, scope),
			"resolved": resolved(g, redirect),
			"reusing":  reusing(g),
		}
		for k := 0; k < 8; k++ {
			p := make(Path, rng.Intn(5))
			for i := range p {
				p[i] = labels[rng.Intn(len(labels))]
			}
			start := make([]oem.OID, 1+rng.Intn(3))
			for i := range start {
				start[i] = oem.OID(fmt.Sprintf("N%d", rng.Intn(11))) // N10 is missing
			}
			for name, view := range views {
				want := product(view, start, Const(p))
				if got := EvalPath(view, start, p); !slices.Equal(got, want) {
					t.Fatalf("seed %d %s: EvalPath(%v, %s) = %v, product search %v", seed, name, start, p, got, want)
				}
				if got := Eval(view, start, Const(p)); !slices.Equal(got, want) {
					t.Fatalf("seed %d %s: Eval(%v, %s) = %v, product search %v", seed, name, start, p, got, want)
				}
			}
		}
	}
}

// TestEvalDispatchesParsedConstPaths checks that a parsed dotted path,
// which the parser builds left-associated, is recognised as constant once
// normalized and so takes the walk.
func TestEvalDispatchesParsedConstPaths(t *testing.T) {
	for _, s := range []string{"a", "a.b", "a.b.c", "(a).(b.c)"} {
		if _, ok := IsConst(Normalize(MustParse(s))); !ok {
			t.Errorf("%q not constant after Normalize", s)
		}
	}
	for _, s := range []string{"a|b", "a.?", "a*", "*"} {
		if _, ok := IsConst(Normalize(MustParse(s))); ok {
			t.Errorf("%q classified constant", s)
		}
	}
}
