// Package memo holds the bounded, content-addressed table that memoises
// pure derivations from bytes: parsed certificates and verifiers in msp,
// parsed policy expressions in endorsement, decoded verification policies
// in policy, decoded names in wire.
package memo

import "sync"

// Key is the type a table is keyed by: the exact input a value was derived
// from, as bytes or as a string.
type Key interface{ ~string | ~[]byte }

// Table is a bounded, content-addressed table. Keys are the exact bytes a
// value was derived from, so a hit can never be staler than a fresh
// derivation and there is nothing to invalidate. A lookup converts the key
// in the index expression, which allocates nothing. When the table holds
// Max entries the next Put drops it wholesale: inputs arriving from other
// networks cannot grow it past Max entries, and a flush costs only
// re-derivation. The zero value with Max set is ready to use; it is safe
// for concurrent use.
type Table[K Key, V any] struct {
	Max int

	mu sync.RWMutex
	m  map[string]V
}

// Get returns the value remembered for key.
func (t *Table[K, V]) Get(key K) (V, bool) {
	t.mu.RLock()
	v, ok := t.m[string(key)]
	t.mu.RUnlock()
	return v, ok
}

// Put remembers v for key, first dropping every entry if the table is full.
// The key is a string whatever K is: a caller converts a byte key once,
// so the table owns a copy, and a caller whose value is the key string,
// as an intern table's is, passes that one string as both.
func (t *Table[K, V]) Put(key string, v V) {
	t.mu.Lock()
	if t.m == nil || len(t.m) >= t.Max {
		t.m = make(map[string]V)
	}
	t.m[key] = v
	t.mu.Unlock()
}

// Len returns the number of entries the table holds.
func (t *Table[K, V]) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}
