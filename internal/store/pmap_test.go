package store

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestPmapBasic(t *testing.T) {
	var m *pmap[int]
	if m.Len() != 0 {
		t.Fatalf("nil pmap Len = %d", m.Len())
	}
	m = m.With("a", 1).With("b", 2).With("a", 3)
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if v, ok := m.Get("a"); !ok || v != 3 {
		t.Fatalf("Get(a) = %d,%v", v, ok)
	}
	if v, ok := m.Get("b"); !ok || v != 2 {
		t.Fatalf("Get(b) = %d,%v", v, ok)
	}
	if _, ok := m.Get("c"); ok {
		t.Fatal("Get(c) found")
	}
	m2 := m.Without("a")
	if m2.Len() != 1 || m2.Has("a") || !m2.Has("b") {
		t.Fatalf("Without(a): len=%d has(a)=%v has(b)=%v", m2.Len(), m2.Has("a"), m2.Has("b"))
	}
	// The original is untouched — persistence.
	if !m.Has("a") || m.Len() != 2 {
		t.Fatal("Without mutated the receiver")
	}
	if m.Without("missing") != m {
		t.Fatal("Without(missing) did not return the receiver")
	}
}

// TestPmapAgainstModel drives a pmap and a builtin map through the same
// random operation stream, checking full agreement after every step, and
// verifies that retained old versions stay frozen.
func TestPmapAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var m *pmap[int]
	model := map[string]int{}
	type frozen struct {
		m    *pmap[int]
		want map[string]int
	}
	var pinned []frozen
	for step := 0; step < 8000; step++ {
		key := fmt.Sprintf("k%d", rng.Intn(600))
		switch rng.Intn(3) {
		case 0, 1:
			m = m.With(key, step)
			model[key] = step
		case 2:
			m = m.Without(key)
			delete(model, key)
		}
		if m.Len() != len(model) {
			t.Fatalf("step %d: Len=%d model=%d", step, m.Len(), len(model))
		}
		if step%997 == 0 {
			want := make(map[string]int, len(model))
			for k, v := range model {
				want[k] = v
			}
			pinned = append(pinned, frozen{m, want})
		}
	}
	check := func(m *pmap[int], want map[string]int) {
		t.Helper()
		got := map[string]int{}
		m.Range(func(k string, v int) bool {
			got[k] = v
			return true
		})
		if len(got) != len(want) || len(got) != m.Len() {
			t.Fatalf("size mismatch: range=%d want=%d len=%d", len(got), len(want), m.Len())
		}
		for k, v := range want {
			if gv, ok := m.Get(k); !ok || gv != v {
				t.Fatalf("Get(%s) = %d,%v want %d", k, gv, ok, v)
			}
		}
	}
	check(m, model)
	for _, f := range pinned {
		check(f.m, f.want)
	}
}

func TestPmapRangeEarlyStop(t *testing.T) {
	var m *pmap[int]
	for i := 0; i < 100; i++ {
		m = m.With(fmt.Sprintf("k%d", i), i)
	}
	n := 0
	m.Range(func(string, int) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("Range visited %d entries, want 10", n)
	}
}

// TestPmapSetOwnedAgainstWith builds one map with the in-place setOwned
// and another with the path-copying With from the same random stream,
// repeated keys included, and checks that they agree entry for entry and
// in iteration order (the trie shape depends only on the key set). It
// then shares the owned-built map and derives from it with With/Without,
// which must leave it frozen.
func TestPmapSetOwnedAgainstWith(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	owned := &pmap[int]{}
	var ref *pmap[int]
	model := map[string]int{}
	for step := 0; step < 30000; step++ {
		key := fmt.Sprintf("k%d", rng.Intn(20000))
		_, had := model[key]
		if added := owned.setOwned(key, step); added == had {
			t.Fatalf("step %d: setOwned(%s) added=%v, key present before=%v", step, key, added, had)
		}
		ref = ref.With(key, step)
		model[key] = step
	}
	if owned.Len() != len(model) || ref.Len() != len(model) {
		t.Fatalf("Len: owned %d, With %d, model %d", owned.Len(), ref.Len(), len(model))
	}
	type kv struct {
		k string
		v int
	}
	entries := func(m *pmap[int]) []kv {
		var out []kv
		m.Range(func(k string, v int) bool {
			out = append(out, kv{k, v})
			return true
		})
		return out
	}
	got, want := entries(owned), entries(ref)
	if len(got) != len(want) {
		t.Fatalf("Range: owned %d entries, With %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Range entry %d: owned %v, With %v", i, got[i], want[i])
		}
	}
	for k, v := range model {
		if gv, ok := owned.Get(k); !ok || gv != v {
			t.Fatalf("owned Get(%s) = %d,%v want %d", k, gv, ok, v)
		}
	}
	if owned.Has("absent") {
		t.Fatal("owned map has a key never set")
	}

	// Once shared, the owned-built map is persistent like any other.
	m := owned
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(25000))
		if rng.Intn(2) == 0 {
			m = m.With(key, -i)
		} else {
			m = m.Without(key)
		}
	}
	after := entries(owned)
	if len(after) != len(got) || owned.Len() != len(got) {
		t.Fatalf("derived With/Without resized the owned-built map: %d entries, Len %d, was %d", len(after), owned.Len(), len(got))
	}
	for i := range after {
		if after[i] != got[i] {
			t.Fatalf("derived With/Without changed the owned-built map at entry %d: %v, was %v", i, after[i], got[i])
		}
	}
}
