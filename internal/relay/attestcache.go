package relay

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"strconv"
	"sync"
	"time"

	"repro/internal/ledger"
	"repro/internal/peer"
)

// Attestation-cache defaults. Entries are whole marshaled responses —
// result ciphertext plus attestations — so the count bound doubles as a
// rough memory bound; the TTL bounds how long a response can be served
// after the world that produced it (client expectations, certificate
// lifetimes) may have drifted, even when nothing the query read changes.
const (
	defaultAttestCacheSize = 512
	defaultAttestCacheTTL  = 5 * time.Minute
)

// cacheKey is a proof's content address (see attestCacheKey).
type cacheKey [sha256.Size]byte

// attestEntry is one cached proof: the marshaled wire.QueryResponse served
// verbatim on a hit.
type attestEntry struct {
	key      cacheKey
	response []byte
	storedAt time.Time // for the TTL
}

// attestationCache is the relay driver's content-addressed proof cache: a
// repeated identical query is served the previously built response without
// a single ECDSA signature or ECIES encryption. Everything the proof
// depends on is in the key (attestCacheKey), so there is nothing to
// invalidate: an entry whose inputs changed is never addressed again and
// ages out of the LRU. A TTL bounds lifetime outright, and LRU eviction
// bounds memory.
//
// Admission is one rule: every fresh build stores its response, so the
// second send of a question (an idempotent retry, or a poller pinning its
// RequestID) is already a hit. A one-off query with a random nonce takes an
// LRU slot it will never hit; the LRU bound caps that, and an evicted
// poller's next miss stores its entry again.
type attestationCache struct {
	mu      sync.Mutex
	max     int
	ttl     time.Duration
	now     func() time.Time
	entries map[cacheKey]*list.Element
	lru     *list.List // front = most recently used; values are *attestEntry
}

func newAttestationCache(max int, ttl time.Duration, now func() time.Time) *attestationCache {
	return &attestationCache{
		max:     max,
		ttl:     ttl,
		now:     now,
		entries: make(map[cacheKey]*list.Element),
		lru:     list.New(),
	}
}

// attestCacheKey derives the content address of a proof from everything
// the proof depends on:
//
//   - the query digest (contract, function, args and nonce) and the policy
//     pin: the question;
//   - the result digest: the answer;
//   - the read set with each key's MVCC version, as the first attestor's
//     simulation recorded it: any commit to state the query read — even
//     one restoring identical bytes (ABA) — bumps a version and so changes
//     the key, while a write to any other key leaves it (a range read
//     records the keys it returned, so an insert into the range reaches
//     the key through the result);
//   - the requester's certificate digest: the response is encrypted to
//     that certificate's key;
//   - each attestor's certificate: an org leaving the network, or a peer
//     re-enrolling, changes who a fresh build would have sign.
//
// Every field is length-framed into one SHA-256 through a stack buffer,
// and the key is the digest itself, so deriving one allocates nothing.
func attestCacheKey(queryDigest, policyDigest, resultDigest []byte, reads []ledger.KVRead, requesterCertDigest []byte, attestors []*peer.Peer) cacheKey {
	h := sha256.New()
	var scratch [256]byte
	b := appendField(scratch[:0], queryDigest)
	b = appendField(b, policyDigest)
	b = appendField(b, resultDigest)
	b = appendField(b, requesterCertDigest)
	h.Write(binary.AppendUvarint(b, uint64(len(reads))))
	for _, r := range reads {
		b = appendField(scratch[:0], r.Namespace)
		b = appendField(b, r.Key)
		b = binary.AppendUvarint(b, r.Version.BlockNum)
		b = binary.AppendUvarint(b, r.Version.TxNum)
		b = strconv.AppendBool(b, r.Exists)
		h.Write(b)
	}
	for _, p := range attestors {
		cert := p.Identity().CertPEM()
		h.Write(binary.AppendUvarint(scratch[:0], uint64(len(cert))))
		h.Write(cert)
	}
	var key cacheKey
	h.Sum(key[:0])
	return key
}

// appendField appends v to b behind its length.
func appendField[T string | []byte](b []byte, v T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(v))), v...)
}

// get returns the cached response for key, or nil when absent or expired.
func (c *attestationCache) get(key cacheKey) []byte {
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
	c.lru.MoveToFront(el)
	return e.response
}

// put stores a freshly built response under its content address.
func (c *attestationCache) put(key cacheKey, response []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&attestEntry{key: key, response: response, storedAt: c.now()})
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
