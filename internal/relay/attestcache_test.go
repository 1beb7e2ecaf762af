package relay

import (
	"slices"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/ledger"
	"repro/internal/orderer"
	"repro/internal/peer"
	"repro/internal/statedb"
)

// testKey is a cache key that differs only in its query digest.
func testKey(query string) cacheKey {
	return attestCacheKey([]byte(query), nil, nil, nil, nil, nil)
}

func TestAttestationCacheTTL(t *testing.T) {
	clk := newFakeClock()
	c := newAttestationCache(8, time.Minute, clk.Now)
	key := testKey("q")
	c.put(key, []byte("resp"))
	clk.Advance(59 * time.Second)
	if c.get(key) == nil {
		t.Fatal("entry expired before its TTL")
	}
	clk.Advance(2 * time.Second)
	if c.get(key) != nil {
		t.Fatal("entry served past its TTL")
	}
}

func TestAttestationCacheLRUEviction(t *testing.T) {
	c := newAttestationCache(2, time.Minute, newFakeClock().Now)
	k1, k2, k3 := testKey("1"), testKey("2"), testKey("3")
	c.put(k1, []byte("r1"))
	c.put(k2, []byte("r2"))
	// Touch k1 so k2 is the least recently used.
	if c.get(k1) == nil {
		t.Fatal("k1 missing")
	}
	c.put(k3, []byte("r3"))
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

// keyParts are the inputs of one attestCacheKey call.
type keyParts struct {
	query, policy, result, cert []byte
	reads                       []ledger.KVRead
	attestors                   []*peer.Peer
}

func (k keyParts) key() cacheKey {
	return attestCacheKey(k.query, k.policy, k.result, k.reads, k.cert, k.attestors)
}

// TestAttestationCacheKeySeparation: any single input differing must
// address a different entry — especially the requester certificate, whose
// key the cached ciphertext is encrypted to, each read's version, which is
// what a commit to read state changes, and the attestor set, which an org
// leaving the network changes. Fields are length-framed, so moving a byte
// from one field into the next changes the key too. Deriving a key
// allocates nothing: the key is the digest array itself.
func TestAttestationCacheKeySeparation(t *testing.T) {
	n := fabric.NewNetwork("keys", orderer.Config{BatchSize: 1})
	var peers []*peer.Peer
	for _, org := range []string{"org-a", "org-b"} {
		o, err := n.AddOrg(org, 1)
		if err != nil {
			t.Fatalf("AddOrg %s: %v", org, err)
		}
		peers = append(peers, o.Peers...)
	}
	base := func() keyParts {
		return keyParts{
			query: []byte("qd"), policy: []byte("pd"), result: []byte("rd"), cert: []byte("cert"),
			reads: []ledger.KVRead{
				{Namespace: "docs", Key: "doc/bl-77", Version: statedb.Version{BlockNum: 3, TxNum: 0}, Exists: true},
				{Namespace: "ecc", Key: "rule", Version: statedb.Version{BlockNum: 1, TxNum: 2}, Exists: true},
			},
			attestors: slices.Clone(peers),
		}
	}
	mutations := map[string]func(*keyParts){
		"query":         func(k *keyParts) { k.query = []byte("x") },
		"policy":        func(k *keyParts) { k.policy = []byte("x") },
		"result":        func(k *keyParts) { k.result = []byte("x") },
		"requester":     func(k *keyParts) { k.cert = []byte("x") },
		"read block":    func(k *keyParts) { k.reads[0].Version.BlockNum++ },
		"read tx":       func(k *keyParts) { k.reads[1].Version.TxNum++ },
		"read exists":   func(k *keyParts) { k.reads[0].Exists = false },
		"read key":      func(k *keyParts) { k.reads[0].Key = "doc/bl-99" },
		"read ns":       func(k *keyParts) { k.reads[1].Namespace = "cmdac" },
		"read dropped":  func(k *keyParts) { k.reads = k.reads[:1] },
		"read added":    func(k *keyParts) { k.reads = append(k.reads, ledger.KVRead{Namespace: "audit", Key: "k"}) },
		"ns/key frame":  func(k *keyParts) { k.reads[0].Namespace, k.reads[0].Key = "docsdoc/", "bl-77" },
		"query/policy":  func(k *keyParts) { k.query, k.policy = []byte("qdp"), []byte("d") },
		"attestor gone": func(k *keyParts) { k.attestors = k.attestors[:1] },
		"attestors swapped": func(k *keyParts) {
			k.attestors[0], k.attestors[1] = k.attestors[1], k.attestors[0]
		},
		"attestor replaced": func(k *keyParts) { k.attestors[1] = k.attestors[0] },
	}
	warm := base()
	baseKey := warm.key()
	if base().key() != baseKey {
		t.Fatal("the same inputs derive different keys")
	}
	if got := testing.AllocsPerRun(100, func() { _ = warm.key() }); got != 0 {
		t.Fatalf("deriving a key costs %v allocations, want 0", got)
	}
	seen := map[cacheKey]string{baseKey: "base"}
	for name, mutate := range mutations {
		k := base()
		mutate(&k)
		got := k.key()
		if prev, dup := seen[got]; dup {
			t.Fatalf("mutation %q derives the same key as %q", name, prev)
		}
		seen[got] = name
	}
}
