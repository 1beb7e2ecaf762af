package relay

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/ledger"
)

// Attestation-cache defaults. Entries are whole marshaled responses —
// result ciphertext plus attestations — so the count bound doubles as a
// rough memory bound; the TTL bounds how long a response can be served
// after the world that produced it (peer set, client expectations) may
// have drifted, even when the ledger namespace it reads never changes.
const (
	defaultAttestCacheSize = 512
	defaultAttestCacheTTL  = 5 * time.Minute
)

// blockSource is the slice of ledger.BlockStore the cache needs to watch
// for namespace invalidation.
type blockSource interface {
	Height() uint64
	Block(num uint64) (*ledger.Block, error)
}

// attestEntry is one cached proof: the marshaled wire.QueryResponse served
// verbatim on a hit, plus the consistency metadata that decides whether the
// hit is still sound.
type attestEntry struct {
	key        string
	response   []byte
	namespaces []string  // chaincode namespaces the query's read set touched
	height     uint64    // chain height when the proof was built
	storedAt   time.Time // for the TTL
}

// attestationCache is the relay driver's content-addressed proof cache: a
// repeated identical query (same query digest — which binds contract,
// function, arguments and nonce — same policy pin, same result, same
// requester) is served the previously built response without a single
// ECDSA signature or ECIES encryption. Consistency comes from the key and
// from ledger-height invalidation:
//
//   - The result digest is part of the key, so a cached proof can never be
//     served for data that changed — a changed result is a different key.
//   - An entry dies when a later block commits a valid write into any of
//     the entry's namespaces — the exact set of chaincode namespaces its
//     query's read set touched, taken from the write-set namespaces of
//     committed transactions rather than the submitting chaincode. A
//     chaincode that writes through a cross-chaincode call still
//     invalidates the namespace it actually wrote; a write to chaincode A
//     no longer evicts entries that only read chaincode B. This is belt
//     and braces over the result-digest keying: the caller recomputes the
//     result before lookup, so even a stale-height entry could only be hit
//     with the current result — but height invalidation keeps the cache
//     from resurrecting proofs across writes that happen to restore an old
//     value (ABA), where "the data is the same" is not "nothing happened".
//     The guarantee is "no staler than a freshly built proof": a write
//     committing in the instants between the caller's advance and its get
//     is caught by the next advance, exactly as a write committing during
//     a fresh proof build would be reflected only in the next query.
//   - A TTL bounds lifetime outright, and LRU eviction bounds memory.
//
// Admission is one rule: every fresh build stores its response, so the
// second send of a question (an idempotent retry, or a poller pinning its
// RequestID) is already a hit. A one-off query with a random nonce takes an
// LRU slot it will never hit; the LRU bound caps that, and an evicted
// poller's next miss stores its entry again.
//
// What it will never serve: a proof for a different question, policy,
// requester or result (all in the key), or a proof older than the last
// scanned valid write to the namespace it reads.
type attestationCache struct {
	mu      sync.Mutex
	max     int
	ttl     time.Duration
	now     func() time.Time
	entries map[string]*list.Element
	lru     *list.List // front = most recently used; values are *attestEntry

	// Namespace write tracking, advanced lazily from the block source: the
	// height of the last block containing a valid write-bearing transaction
	// per chaincode, and how far the chain has been scanned. scanningTo is
	// the single-flight marker: the height some in-flight advance is
	// already scanning toward, so a burst of concurrent queries does not
	// rescan the same block range N times.
	scanned    uint64
	scanningTo uint64
	lastWrite  map[string]uint64
	// baseline is the height an empty-cache fast-forward jumped to; blocks
	// below it were never scanned, so entries built below it cannot be
	// covered by write invalidation and are refused by put.
	baseline uint64
}

func newAttestationCache(max int, ttl time.Duration, now func() time.Time) *attestationCache {
	return &attestationCache{
		max:       max,
		ttl:       ttl,
		now:       now,
		entries:   make(map[string]*list.Element),
		lru:       list.New(),
		lastWrite: make(map[string]uint64),
	}
}

// attestCacheKey derives the content address of a proof: query digest
// (binding contract, function, args and nonce), policy pin, result digest,
// and the requester's certificate digest — the response is encrypted to
// that certificate's key, so two requesters asking the identical question
// must never share an entry.
func attestCacheKey(queryDigest, policyDigest, resultDigest, requesterCertDigest []byte) string {
	return string(cryptoutil.Digest(queryDigest, policyDigest, resultDigest, requesterCertDigest))
}

// advance scans blocks committed since the last scan, recording the height
// of the most recent valid write per chaincode namespace. Called before
// every lookup so invalidation is never staler than the caller's view of
// the chain. An empty cache fast-forwards past the whole backlog instead
// of scanning it: with no entries there is nothing to invalidate, writes
// older than any future entry's build height are irrelevant, and a relay
// (re)starting against a long chain must not pay an O(chain) scan on its
// first query.
func (c *attestationCache) advance(src blockSource) {
	height := src.Height()
	c.mu.Lock()
	if c.lru.Len() == 0 && height > c.scanned && height > c.scanningTo {
		// The baseline rises with the jump: a concurrent query that sampled
		// its build height below it (its reads may predate a skipped write)
		// will have its put refused rather than stored uninvalidatable.
		c.scanned = height
		c.baseline = height
		c.mu.Unlock()
		return
	}
	// Single-flight: start where the furthest in-flight scan will end, so
	// concurrent queries after a commit burst scan disjoint ranges (usually
	// none) instead of all rescanning the same blocks. A caller that skips
	// here serves with invalidation at most one in-flight scan stale, which
	// the next advance closes.
	from := c.scanned
	if c.scanningTo > from {
		from = c.scanningTo
	}
	if height <= from {
		c.mu.Unlock()
		return
	}
	c.scanningTo = height
	c.mu.Unlock()
	// Read blocks outside the cache lock; the chain is append-only, so the
	// range [from, height) is immutable.
	updates := make(map[string]uint64)
	for num := from; num < height; num++ {
		block, err := src.Block(num)
		if err != nil {
			continue
		}
		for _, tx := range block.Transactions {
			if tx.Validation != ledger.Valid || len(tx.RWSet.Writes) == 0 {
				continue
			}
			for _, w := range tx.RWSet.Writes {
				// Exact invalidation: the namespace each write actually
				// landed in, not the chaincode that submitted it.
				updates[w.Namespace] = num + 1 // heights are 1-past the block number
			}
		}
	}
	c.mu.Lock()
	// Merge unconditionally: with disjoint scan ranges, a later-started
	// scan can finish first, and dropping the earlier range's writes would
	// leave lastWrite claiming coverage it does not have.
	if height > c.scanned {
		c.scanned = height
	}
	for ns, h := range updates {
		if h > c.lastWrite[ns] {
			c.lastWrite[ns] = h
		}
	}
	c.mu.Unlock()
}

// get returns the cached response for key, or nil when absent, expired, or
// invalidated by a write to its namespace since it was built.
func (c *attestationCache) get(key string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	e := el.Value.(*attestEntry)
	if c.now().Sub(e.storedAt) > c.ttl {
		c.removeLocked(el)
		return nil
	}
	for _, ns := range e.namespaces {
		if c.lastWrite[ns] > e.height {
			c.removeLocked(el)
			return nil
		}
	}
	c.lru.MoveToFront(el)
	return e.response
}

// put stores a freshly built response under its content address. height is
// the chain height the proof was built at; namespaces is the set of
// chaincode namespaces the query's read set touched. Entries built below
// the fast-forward baseline are refused: write invalidation cannot vouch
// for them.
func (c *attestationCache) put(key string, response []byte, namespaces []string, height uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if height < c.baseline {
		return
	}
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&attestEntry{
		key:        key,
		response:   response,
		namespaces: namespaces,
		height:     height,
		storedAt:   c.now(),
	})
	for c.lru.Len() > c.max {
		c.removeLocked(c.lru.Back())
	}
}

func (c *attestationCache) removeLocked(el *list.Element) {
	c.lru.Remove(el)
	delete(c.entries, el.Value.(*attestEntry).key)
}

// len reports the live entry count (for tests).
func (c *attestationCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
