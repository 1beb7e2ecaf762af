package msp

import "sync"

// memo is a bounded, content-addressed table. Keys are the exact bytes a
// value was derived from, so a hit can never be staler than a fresh
// derivation and there is nothing to invalidate. The lookup converts the
// key in the index expression, which allocates nothing. When the table is
// full it is dropped wholesale: inputs arriving from other networks cannot
// grow it past max entries, and a flush costs only re-derivation.
type memo[V any] struct {
	mu  sync.RWMutex
	max int
	m   map[string]V
}

func (t *memo[V]) get(key []byte) (V, bool) {
	t.mu.RLock()
	v, ok := t.m[string(key)]
	t.mu.RUnlock()
	return v, ok
}

func (t *memo[V]) put(key []byte, v V) {
	t.mu.Lock()
	if t.m == nil || len(t.m) >= t.max {
		t.m = make(map[string]V)
	}
	t.m[string(key)] = v
	t.mu.Unlock()
}
