package relay

import (
	"testing"
	"time"

	"repro/internal/ledger"
)

// fakeChain is a minimal blockSource for cache-invalidation tests.
type fakeChain struct {
	blocks []*ledger.Block
}

func (f *fakeChain) Height() uint64 { return uint64(len(f.blocks)) }
func (f *fakeChain) Block(num uint64) (*ledger.Block, error) {
	return f.blocks[num], nil
}

func (f *fakeChain) commitWrite(chaincode string) {
	f.blocks = append(f.blocks, &ledger.Block{
		Number: uint64(len(f.blocks)),
		Transactions: []*ledger.Transaction{{
			Chaincode:  chaincode,
			Validation: ledger.Valid,
			RWSet:      ledger.RWSet{Writes: []ledger.KVWrite{{Namespace: chaincode, Key: "k"}}},
		}},
	})
}

func (f *fakeChain) commitReadOnly(chaincode string) {
	f.blocks = append(f.blocks, &ledger.Block{
		Number: uint64(len(f.blocks)),
		Transactions: []*ledger.Transaction{{
			Chaincode:  chaincode,
			Validation: ledger.Valid,
		}},
	})
}

func testClock(start time.Time) (func() time.Time, func(time.Duration)) {
	now := start
	return func() time.Time { return now }, func(d time.Duration) { now = now.Add(d) }
}

func storeEntry(c *attestationCache, key string, resp []byte, ns string, h uint64) {
	c.put(key, resp, []string{ns}, h)
}

func TestAttestationCacheHitAndNamespaceInvalidation(t *testing.T) {
	nowFn, _ := testClock(time.Unix(1000, 0))
	c := newAttestationCache(8, time.Minute, nowFn)
	chain := &fakeChain{}
	chain.commitWrite("docs")
	c.advance(chain)

	key := attestCacheKey([]byte("qd"), []byte("pd"), []byte("rd"), []byte("cert"))
	storeEntry(c, key, []byte("response"), "docs", chain.Height())
	if got := c.get(key); string(got) != "response" {
		t.Fatalf("get = %q, want cached response", got)
	}

	// A valid write to an unrelated namespace leaves the entry alone.
	chain.commitWrite("other")
	c.advance(chain)
	if c.get(key) == nil {
		t.Fatal("entry invalidated by a write to an unrelated namespace")
	}

	// A read-only commit in the same namespace leaves it alone too.
	chain.commitReadOnly("docs")
	c.advance(chain)
	if c.get(key) == nil {
		t.Fatal("entry invalidated by a read-only transaction")
	}

	// A valid write into the entry's namespace kills it.
	chain.commitWrite("docs")
	c.advance(chain)
	if c.get(key) != nil {
		t.Fatal("entry survived a write to its namespace")
	}
}

func TestAttestationCacheTTL(t *testing.T) {
	nowFn, advanceClock := testClock(time.Unix(1000, 0))
	c := newAttestationCache(8, time.Minute, nowFn)
	key := attestCacheKey([]byte("q"), []byte("p"), []byte("r"), []byte("c"))
	storeEntry(c, key, []byte("resp"), "docs", 1)
	advanceClock(59 * time.Second)
	if c.get(key) == nil {
		t.Fatal("entry expired before its TTL")
	}
	advanceClock(2 * time.Second)
	if c.get(key) != nil {
		t.Fatal("entry served past its TTL")
	}
}

func TestAttestationCacheLRUEviction(t *testing.T) {
	nowFn, _ := testClock(time.Unix(1000, 0))
	c := newAttestationCache(2, time.Minute, nowFn)
	k1 := attestCacheKey([]byte("1"), nil, nil, nil)
	k2 := attestCacheKey([]byte("2"), nil, nil, nil)
	k3 := attestCacheKey([]byte("3"), nil, nil, nil)
	storeEntry(c, k1, []byte("r1"), "ns", 1)
	storeEntry(c, k2, []byte("r2"), "ns", 1)
	// Touch k1 so k2 is the least recently used.
	if c.get(k1) == nil {
		t.Fatal("k1 missing")
	}
	storeEntry(c, k3, []byte("r3"), "ns", 1)
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if c.get(k2) != nil {
		t.Fatal("least recently used entry survived eviction")
	}
	if c.get(k1) == nil || c.get(k3) == nil {
		t.Fatal("recently used entries evicted")
	}
}

func TestAttestationCacheKeySeparation(t *testing.T) {
	// Any single component differing must address a different entry —
	// especially the requester certificate, whose key the cached ciphertext
	// is encrypted to.
	base := [][]byte{[]byte("qd"), []byte("pd"), []byte("rd"), []byte("cert")}
	keys := map[string]bool{attestCacheKey(base[0], base[1], base[2], base[3]): true}
	for i := range base {
		mutated := make([][]byte, len(base))
		copy(mutated, base)
		mutated[i] = []byte("x")
		k := attestCacheKey(mutated[0], mutated[1], mutated[2], mutated[3])
		if keys[k] {
			t.Fatalf("component %d does not affect the cache key", i)
		}
		keys[k] = true
	}
}

// TestAttestationCacheFastForwardsEmptyBacklog: the first advance over an
// empty cache jumps past the chain's history instead of scanning it —
// there is nothing to invalidate — while incremental scanning (and hence
// invalidation) still works for everything committed afterwards.
func TestAttestationCacheFastForwardsEmptyBacklog(t *testing.T) {
	nowFn, _ := testClock(time.Unix(1000, 0))
	c := newAttestationCache(8, time.Minute, nowFn)
	chain := &fakeChain{}
	for i := 0; i < 50; i++ {
		chain.commitWrite("docs")
	}
	c.advance(chain)
	c.mu.Lock()
	scanned, tracked := c.scanned, len(c.lastWrite)
	c.mu.Unlock()
	if scanned != 50 || tracked != 0 {
		t.Fatalf("fast-forward scanned=%d tracked=%d, want 50/0", scanned, tracked)
	}
	// Entries built at or above the baseline are still invalidated by
	// later writes.
	key := attestCacheKey([]byte("q"), nil, nil, nil)
	storeEntry(c, key, []byte("resp"), "docs", chain.Height())
	chain.commitWrite("docs")
	c.advance(chain)
	if c.get(key) != nil {
		t.Fatal("post-baseline write did not invalidate the entry")
	}
}

// TestAttestationCachePutBelowBaselineRefused: an entry whose build height
// predates an empty-cache fast-forward cannot be covered by write
// invalidation, so it must not be stored.
func TestAttestationCachePutBelowBaselineRefused(t *testing.T) {
	nowFn, _ := testClock(time.Unix(1000, 0))
	c := newAttestationCache(8, time.Minute, nowFn)
	chain := &fakeChain{}
	for i := 0; i < 5; i++ {
		chain.commitWrite("docs")
	}
	c.advance(chain) // fast-forward: baseline = 5
	key := attestCacheKey([]byte("stale"), nil, nil, nil)
	storeEntry(c, key, []byte("r"), "docs", 4) // sampled before the jump
	if c.get(key) != nil {
		t.Fatal("entry below the fast-forward baseline was stored")
	}
	storeEntry(c, key, []byte("r"), "docs", 5)
	if c.get(key) == nil {
		t.Fatal("entry at the baseline was refused")
	}
}
