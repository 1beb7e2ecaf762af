// Package statedb implements the versioned key-value world state underlying
// each ledger. Every committed value carries the (block, tx) version that
// wrote it, which is what makes Fabric-style MVCC validation possible: a
// transaction's read set records the versions observed during simulation,
// and the committer rejects the transaction if any of those keys have moved
// on by commit time.
//
// Keys live inside chaincode namespaces, as in Fabric: chaincode A's "k"
// and chaincode B's "k" are different keys. The store is sharded by
// namespace with one lock per shard, so a peer applying a block's
// non-conflicting write sets concurrently never contends on a global lock
// for write sets in different namespaces.
package statedb

import (
	"errors"
	"slices"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/memo"
)

// ErrInvalidKey is returned for keys that are empty or contain the composite
// key separator.
var ErrInvalidKey = errors.New("statedb: invalid key")

// compositeSep separates the parts of a composite key. U+0000 cannot appear
// in application key parts.
const compositeSep = "\x00"

// Version identifies the transaction that last wrote a key.
type Version struct {
	BlockNum uint64
	TxNum    uint64
}

// Before reports whether v was committed strictly before other.
func (v Version) Before(other Version) bool {
	if v.BlockNum != other.BlockNum {
		return v.BlockNum < other.BlockNum
	}
	return v.TxNum < other.TxNum
}

// VersionedValue is a stored value and the version that wrote it.
type VersionedValue struct {
	Value   []byte
	Version Version
}

// KV is a key with its versioned value, as returned by range scans.
type KV struct {
	Key     string
	Value   []byte
	Version Version
}

// Write is a single update in a write batch: a put, or a delete when
// IsDelete is set. Namespace is the chaincode namespace the key lives in.
type Write struct {
	Namespace string
	Key       string
	Value     []byte
	IsDelete  bool
}

// shard is one namespace's key space with its own lock.
type shard struct {
	mu   sync.RWMutex
	data map[string]VersionedValue
}

// Store is an in-memory versioned world state sharded by chaincode
// namespace. It is safe for concurrent use; reads see a consistent view
// under the owning shard's lock, and writes into different namespaces
// never contend.
type Store struct {
	mu     sync.RWMutex // guards the shard map only
	shards map[string]*shard
}

// NewStore returns an empty world state.
func NewStore() *Store {
	return &Store{shards: make(map[string]*shard)}
}

// shardOf returns the shard for a namespace, creating it when create is
// set. Returns nil for an absent namespace when create is false.
func (s *Store) shardOf(ns string, create bool) *shard {
	s.mu.RLock()
	sh := s.shards[ns]
	s.mu.RUnlock()
	if sh != nil || !create {
		return sh
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sh = s.shards[ns]; sh == nil {
		sh = &shard{data: make(map[string]VersionedValue)}
		s.shards[ns] = sh
	}
	return sh
}

// Get returns the value for key in a namespace, or ok=false if absent. The
// value is the stored slice itself, read-only: a committed value is never
// written again (nobody writes a value handed to ApplyWrites, and the next
// write replaces it wholesale), so a reader may keep it but must not modify
// it. It is clipped to its length, so an append by a reader always
// reallocates.
func (s *Store) Get(ns, key string) (VersionedValue, bool) {
	sh := s.shardOf(ns, false)
	if sh == nil {
		return VersionedValue{}, false
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	vv, ok := sh.data[key]
	if !ok {
		return VersionedValue{}, false
	}
	return VersionedValue{Value: slices.Clip(vv.Value), Version: vv.Version}, true
}

// Version returns the committed version for a namespaced key and whether it
// exists.
func (s *Store) Version(ns, key string) (Version, bool) {
	sh := s.shardOf(ns, false)
	if sh == nil {
		return Version{}, false
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	vv, ok := sh.data[key]
	return vv.Version, ok
}

// ApplyWrites commits a batch of writes at the given version. The batch is
// grouped by namespace and each namespace's portion is applied atomically
// under that shard's lock; batches touching disjoint namespaces (or
// disjoint keys — the committer's conflict scheduler guarantees no two
// concurrent batches write the same key) may be applied concurrently.
// Each value is stored as it stands, not copied: a value handed to
// ApplyWrites is never written again, by the caller or anyone else, which
// is what lets Get and Range hand it out in place. A peer commits its
// block's write values, so every peer of a process shares them; the copy
// is made where a caller's buffer enters a write set (chaincode PutState).
func (s *Store) ApplyWrites(writes []Write, v Version) {
	for start := 0; start < len(writes); {
		ns := writes[start].Namespace
		end := start + 1
		for end < len(writes) && writes[end].Namespace == ns {
			end++
		}
		sh := s.shardOf(ns, true)
		sh.mu.Lock()
		for _, w := range writes[start:end] {
			if w.IsDelete {
				delete(sh.data, w.Key)
				continue
			}
			sh.data[w.Key] = VersionedValue{Value: w.Value, Version: v}
		}
		sh.mu.Unlock()
		start = end
	}
}

// Range returns all keys of one namespace in [start, end) in lexical order.
// An empty end means "to the last key". Values are the stored slices,
// read-only and clipped, as Get returns them. The result is sized by a
// counting pass first, so it holds no slack: most scans match a key or two.
func (s *Store) Range(ns, start, end string) []KV {
	sh := s.shardOf(ns, false)
	if sh == nil {
		return nil
	}
	in := func(k string) bool { return k >= start && (end == "" || k < end) }
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	n := 0
	for k := range sh.data {
		if in(k) {
			n++
		}
	}
	out := make([]KV, 0, n)
	for k, vv := range sh.data {
		if !in(k) {
			continue
		}
		out = append(out, KV{Key: k, Value: slices.Clip(vv.Value), Version: vv.Version})
	}
	slices.SortFunc(out, func(a, b KV) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// Namespaces returns every namespace that currently holds at least one key,
// sorted.
func (s *Store) Namespaces() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.shards))
	for ns, sh := range s.shards {
		sh.mu.RLock()
		n := len(sh.data)
		sh.mu.RUnlock()
		if n > 0 {
			out = append(out, ns)
		}
	}
	sort.Strings(out)
	return out
}

// Keys returns the number of keys currently stored across all namespaces.
func (s *Store) Keys() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		total += len(sh.data)
		sh.mu.RUnlock()
	}
	return total
}

// Bounds of the composite-key intern table, set from what it saw in 5 s
// windows (seed 1) of the four benchmark workloads. The keys that repeat
// are the CMDAC's configuration and policy keys, two each, and the bills
// of lading read: 16 on query-hot, 64 on query-cold and transfer, so 68 at
// most. On query-hot, query-cold and invoke-3hop every call hits (7, 7 and
// 5 calls per op). transfer also builds a nonce key per op that no later
// op repeats; each op builds it twice, so it misses once and hits once,
// and 13.9 of transfer's 15 calls per op hit. Those nonce keys flush the
// table every ≈ 800 ops, after which the repeated keys are interned again
// (0.08 misses per op). keysMax is 15 times the repeated set, so only keys
// that never repeat flush it. The longest key seen is 61 bytes, a nonce
// key; maxInternedKey, the longest key built on the stack and kept, is
// twice that, rounded up to a power of two.
const (
	keysMax        = 1024
	maxInternedKey = 128
)

// keys interns composite keys, keyed and valued by the key itself.
var keys = memo.Table[string, string]{Max: keysMax}

// CompositeKey builds a scan-friendly key from an object type and
// attributes, e.g. CompositeKey("shipment", "po-1001"). Parts must not
// contain the U+0000 separator. The key is built in a stack buffer and
// interned, so a key built before costs no allocation and a new one costs
// one; the result never aliases the parts.
func CompositeKey(objectType string, parts ...string) (string, error) {
	n, err := compositeLen(objectType, parts)
	if err != nil {
		return "", err
	}
	var buf [maxInternedKey]byte
	if n > len(buf) {
		// Too long to keep: built once on the heap and handed over.
		b := appendComposite(make([]byte, 0, n), objectType, parts)
		return unsafe.String(unsafe.SliceData(b), n), nil
	}
	b := appendComposite(buf[:0], objectType, parts)
	// The lookup reads the stack bytes in place; only a new key is copied.
	if key, ok := keys.Get(unsafe.String(unsafe.SliceData(b), len(b))); ok {
		return key, nil
	}
	key := string(b)
	keys.Put(key, key)
	return key, nil
}

// CompositeRange returns the [start, end) bounds that cover every composite
// key with the given object type and attribute prefix. start is the prefix
// key followed by the separator; end is its successor, the same bytes with
// that trailing U+0000 replaced by U+0001, so a key whose next byte is 0xff
// still lies inside. Both bounds share one allocation.
func CompositeRange(objectType string, parts ...string) (start, end string, err error) {
	n, err := compositeLen(objectType, parts)
	if err != nil {
		return "", "", err
	}
	b := append(appendComposite(make([]byte, 0, 2*(n+1)), objectType, parts), compositeSep...)
	b = append(appendComposite(b, objectType, parts), compositeSep[0]+1)
	both := unsafe.String(unsafe.SliceData(b), len(b))
	return both[:n+1], both[n+1:], nil
}

// compositeLen validates a composite key's object type and parts and
// returns the length of the key they make.
func compositeLen(objectType string, parts []string) (int, error) {
	if objectType == "" || strings.Contains(objectType, compositeSep) {
		return 0, ErrInvalidKey
	}
	n := len(objectType)
	for _, p := range parts {
		if strings.Contains(p, compositeSep) {
			return 0, ErrInvalidKey
		}
		n += len(compositeSep) + len(p)
	}
	return n, nil
}

// appendComposite appends the composite key of a validated object type and
// parts to b.
func appendComposite(b []byte, objectType string, parts []string) []byte {
	b = append(b, objectType...)
	for _, p := range parts {
		b = append(append(b, compositeSep...), p...)
	}
	return b
}

// SplitCompositeKey splits a composite key into its object type and parts.
func SplitCompositeKey(key string) (objectType string, parts []string) {
	segments := strings.Split(key, compositeSep)
	if len(segments) == 0 {
		return "", nil
	}
	return segments[0], segments[1:]
}
