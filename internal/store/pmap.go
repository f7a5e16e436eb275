package store

import (
	"math/bits"
)

// pmap is a persistent (immutable, structurally shared) hash array mapped
// trie keyed by string. Every mutating operation — With, Without — returns
// a new map that shares all unchanged branches with its receiver, so the
// MVCC store can publish a fresh version per committed mutation while
// copying only the O(log n) path from the root to the touched leaf.
// A nil *pmap is the empty map; all methods but setOwned are nil-safe.
// setOwned is the one in-place mutation, for building a map nobody else
// can see yet.
//
// pmap is not safe for concurrent mutation, but any number of goroutines
// may read any number of versions concurrently without synchronization:
// published maps are never modified.
type pmap[V any] struct {
	root *pnode[V]
	size int
}

const (
	pmapBits  = 6             // branching factor 2^6 = 64
	pmapWidth = 1 << pmapBits // children per node
	pmapMask  = pmapWidth - 1 // chunk mask
	pmapDepth = 64 / pmapBits // levels before the hash is exhausted
)

// pnode is one trie node. The bitmap records which hash chunks are
// populated; entries holds one entry per set bit, in bit order (bitmap
// compression). Nodes at depth >= pmapDepth are collision buckets: the
// bitmap is unused and entries are scanned linearly by key.
type pnode[V any] struct {
	bitmap  uint64
	entries []pentry[V]
}

// pentry is either a leaf (child == nil; key/val meaningful) or an interior
// edge (child != nil).
type pentry[V any] struct {
	key   string
	val   V
	child *pnode[V]
}

// pmapHash is 64-bit FNV-1a, inlined to keep the read path allocation-free.
func pmapHash(key string) uint64 {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// Len returns the number of entries. O(1).
func (m *pmap[V]) Len() int {
	if m == nil {
		return 0
	}
	return m.size
}

// Get returns the value stored under key.
func (m *pmap[V]) Get(key string) (V, bool) {
	var zero V
	if m == nil || m.root == nil {
		return zero, false
	}
	h := pmapHash(key)
	n := m.root
	for depth := 0; ; depth++ {
		if depth >= pmapDepth {
			for i := range n.entries {
				if n.entries[i].key == key {
					return n.entries[i].val, true
				}
			}
			return zero, false
		}
		bit := uint64(1) << ((h >> (uint(depth) * pmapBits)) & pmapMask)
		if n.bitmap&bit == 0 {
			return zero, false
		}
		e := &n.entries[bits.OnesCount64(n.bitmap&(bit-1))]
		if e.child == nil {
			if e.key == key {
				return e.val, true
			}
			return zero, false
		}
		n = e.child
	}
}

// Has reports whether key is present.
func (m *pmap[V]) Has(key string) bool {
	_, ok := m.Get(key)
	return ok
}

// With returns a map with key bound to val, leaving the receiver unchanged.
func (m *pmap[V]) With(key string, val V) *pmap[V] {
	var root *pnode[V]
	size := 0
	if m != nil {
		root, size = m.root, m.size
	}
	nroot, added := nodeWith(root, 0, pmapHash(key), key, val)
	return &pmap[V]{root: nroot, size: size + added}
}

// setOwned binds key to val by mutating the receiver's nodes in place and
// reports whether the key was new. It is the transient half of a bulk
// build (Store.Load): legal only while the caller alone owns m and every
// node under it — before any version, snapshot or other map has been
// given m or derived from it by With/Without. Once m is shared, only the
// path-copying With/Without may touch it. m must be non-nil.
func (m *pmap[V]) setOwned(key string, val V) bool {
	var added int
	m.root, added = nodeSetOwned(m.root, 0, pmapHash(key), key, val)
	m.size += added
	return added == 1
}

// Without returns a map with key removed, leaving the receiver unchanged.
// Removing an absent key returns the receiver itself.
func (m *pmap[V]) Without(key string) *pmap[V] {
	if m == nil || m.root == nil {
		return m
	}
	nroot, removed := nodeWithout(m.root, 0, pmapHash(key), key)
	if !removed {
		return m
	}
	if nroot == nil {
		return nil
	}
	return &pmap[V]{root: nroot, size: m.size - 1}
}

// Range calls fn for every entry until fn returns false. Iteration order is
// the trie's hash order: arbitrary but deterministic for a given key set.
func (m *pmap[V]) Range(fn func(key string, val V) bool) {
	if m == nil || m.root == nil {
		return
	}
	nodeRange(m.root, fn)
}

func nodeRange[V any](n *pnode[V], fn func(string, V) bool) bool {
	for i := range n.entries {
		e := &n.entries[i]
		if e.child != nil {
			if !nodeRange(e.child, fn) {
				return false
			}
		} else if !fn(e.key, e.val) {
			return false
		}
	}
	return true
}

// nodeWith returns a copy of n with key bound to val, plus 1 if the key was
// new. n may be nil (empty subtree).
func nodeWith[V any](n *pnode[V], depth int, h uint64, key string, val V) (*pnode[V], int) {
	if depth >= pmapDepth {
		// Collision bucket: full 64-bit hash equality, distinguish by key.
		if n == nil {
			return &pnode[V]{entries: []pentry[V]{{key: key, val: val}}}, 1
		}
		for i := range n.entries {
			if n.entries[i].key == key {
				es := make([]pentry[V], len(n.entries))
				copy(es, n.entries)
				es[i].val = val
				return &pnode[V]{entries: es}, 0
			}
		}
		es := make([]pentry[V], len(n.entries), len(n.entries)+1)
		copy(es, n.entries)
		es = append(es, pentry[V]{key: key, val: val})
		return &pnode[V]{entries: es}, 1
	}
	bit := uint64(1) << ((h >> (uint(depth) * pmapBits)) & pmapMask)
	if n == nil {
		return &pnode[V]{bitmap: bit, entries: []pentry[V]{{key: key, val: val}}}, 1
	}
	idx := bits.OnesCount64(n.bitmap & (bit - 1))
	if n.bitmap&bit == 0 {
		es := make([]pentry[V], len(n.entries)+1)
		copy(es, n.entries[:idx])
		es[idx] = pentry[V]{key: key, val: val}
		copy(es[idx+1:], n.entries[idx:])
		return &pnode[V]{bitmap: n.bitmap | bit, entries: es}, 1
	}
	e := n.entries[idx]
	var ne pentry[V]
	added := 0
	switch {
	case e.child != nil:
		child, a := nodeWith(e.child, depth+1, h, key, val)
		ne, added = pentry[V]{child: child}, a
	case e.key == key:
		ne = pentry[V]{key: key, val: val}
	default:
		// Two distinct keys share this chunk: push the existing leaf one
		// level down alongside the new one.
		child, _ := nodeWith[V](nil, depth+1, pmapHash(e.key), e.key, e.val)
		child, _ = nodeWith(child, depth+1, h, key, val)
		ne, added = pentry[V]{child: child}, 1
	}
	es := make([]pentry[V], len(n.entries))
	copy(es, n.entries)
	es[idx] = ne
	return &pnode[V]{bitmap: n.bitmap, entries: es}, added
}

// nodeSetOwned is nodeWith for an unshared subtree: it binds key to val in
// n itself (allocating only new nodes and grown entry slices) and returns
// n, or a fresh node when n is nil, plus 1 if the key was new.
func nodeSetOwned[V any](n *pnode[V], depth int, h uint64, key string, val V) (*pnode[V], int) {
	if n == nil {
		return nodeWith[V](nil, depth, h, key, val)
	}
	if depth >= pmapDepth {
		for i := range n.entries {
			if n.entries[i].key == key {
				n.entries[i].val = val
				return n, 0
			}
		}
		n.entries = append(n.entries, pentry[V]{key: key, val: val})
		return n, 1
	}
	bit := uint64(1) << ((h >> (uint(depth) * pmapBits)) & pmapMask)
	idx := bits.OnesCount64(n.bitmap & (bit - 1))
	if n.bitmap&bit == 0 {
		n.entries = append(n.entries, pentry[V]{})
		copy(n.entries[idx+1:], n.entries[idx:])
		n.entries[idx] = pentry[V]{key: key, val: val}
		n.bitmap |= bit
		return n, 1
	}
	e := &n.entries[idx]
	switch {
	case e.child != nil:
		var added int
		e.child, added = nodeSetOwned(e.child, depth+1, h, key, val)
		return n, added
	case e.key == key:
		e.val = val
		return n, 0
	default:
		// Push the existing leaf one level down, as nodeWith does.
		child, _ := nodeWith[V](nil, depth+1, pmapHash(e.key), e.key, e.val)
		child, _ = nodeSetOwned(child, depth+1, h, key, val)
		*e = pentry[V]{child: child}
		return n, 1
	}
}

// nodeWithout returns a copy of n with key removed (nil if it empties), and
// whether the key was present.
func nodeWithout[V any](n *pnode[V], depth int, h uint64, key string) (*pnode[V], bool) {
	if depth >= pmapDepth {
		for i := range n.entries {
			if n.entries[i].key == key {
				if len(n.entries) == 1 {
					return nil, true
				}
				es := make([]pentry[V], 0, len(n.entries)-1)
				es = append(es, n.entries[:i]...)
				es = append(es, n.entries[i+1:]...)
				return &pnode[V]{entries: es}, true
			}
		}
		return n, false
	}
	bit := uint64(1) << ((h >> (uint(depth) * pmapBits)) & pmapMask)
	if n.bitmap&bit == 0 {
		return n, false
	}
	idx := bits.OnesCount64(n.bitmap & (bit - 1))
	e := n.entries[idx]
	if e.child == nil {
		if e.key != key {
			return n, false
		}
		if len(n.entries) == 1 {
			return nil, true
		}
		es := make([]pentry[V], 0, len(n.entries)-1)
		es = append(es, n.entries[:idx]...)
		es = append(es, n.entries[idx+1:]...)
		return &pnode[V]{bitmap: n.bitmap &^ bit, entries: es}, true
	}
	child, removed := nodeWithout(e.child, depth+1, h, key)
	if !removed {
		return n, false
	}
	if child == nil {
		if len(n.entries) == 1 {
			return nil, true
		}
		es := make([]pentry[V], 0, len(n.entries)-1)
		es = append(es, n.entries[:idx]...)
		es = append(es, n.entries[idx+1:]...)
		return &pnode[V]{bitmap: n.bitmap &^ bit, entries: es}, true
	}
	es := make([]pentry[V], len(n.entries))
	copy(es, n.entries)
	// Collapse a single-leaf child back into this node to keep lookups and
	// iteration from walking chains of unary interior nodes after churn.
	if len(child.entries) == 1 && child.entries[0].child == nil {
		es[idx] = child.entries[0]
	} else {
		es[idx] = pentry[V]{child: child}
	}
	return &pnode[V]{bitmap: n.bitmap, entries: es}, true
}
