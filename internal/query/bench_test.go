package query

import (
	"testing"

	"gsv/internal/store"
	"gsv/internal/workload"
)

// benchEval times Evaluator.Eval of one query over a pinned snapshot of a
// RelationLike base with 4 relations × 1000 tuples × 5 fields (~24k
// objects), the serving tier's query shape. Run with `make bench-query`.
func benchEval(b *testing.B, text string) {
	s := store.NewDefault()
	workload.RelationLike(s, workload.RelationConfig{Relations: 4, TuplesPerRelation: 1000, FieldsPerTuple: 5, Seed: 1})
	snap := s.Snapshot()
	defer snap.Close()
	q := MustParse(text)
	ev := NewEvaluator(snap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		members, err := ev.Eval(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(members) == 0 {
			b.Fatal("empty answer")
		}
	}
}

// BenchmarkEvalConstPath is a constant selection and condition path: the
// level-by-level walk.
func BenchmarkEvalConstPath(b *testing.B) {
	benchEval(b, "SELECT REL.r0.tuple X WHERE X.age > 40")
}

// BenchmarkEvalWildcard selects the same tuples through a wildcard, which
// takes the product search.
func BenchmarkEvalWildcard(b *testing.B) {
	benchEval(b, "SELECT REL.r0.? X WHERE X.age > 40")
}
