package store_test

import (
	"bytes"
	"io"
	"testing"

	"gsv/internal/store"
	"gsv/internal/workload"
)

// benchSnapshot builds a RelationLike base of 4 relations × 2000 tuples ×
// 5 fields (~48k objects), the shape of a durable database's checkpoint.
func benchSnapshot(b *testing.B) (*store.Store, []byte) {
	s := store.NewDefault()
	workload.RelationLike(s, workload.RelationConfig{Relations: 4, TuplesPerRelation: 2000, FieldsPerTuple: 5, Seed: 1})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		b.Fatal(err)
	}
	return s, buf.Bytes()
}

// BenchmarkStoreLoad times restoring the snapshot into an empty store:
// decode, the in-place build of the object trie and both indexes, one
// publish. Run with `make bench-store`.
func BenchmarkStoreLoad(b *testing.B) {
	_, snap := benchSnapshot(b)
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := store.NewDefault()
		if err := s.Load(bytes.NewReader(snap)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreSave times writing the same store as a snapshot.
func BenchmarkStoreSave(b *testing.B) {
	s, snap := benchSnapshot(b)
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
