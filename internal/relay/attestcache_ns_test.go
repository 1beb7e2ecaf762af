package relay

import (
	"context"
	"testing"
	"time"

	"repro/internal/chaincode"
	"repro/internal/fabric"
	"repro/internal/ledger"
	"repro/internal/msp"
	"repro/internal/orderer"
	"repro/internal/policy"
	"repro/internal/syscc"
)

// commitNamespacedWrite appends a block whose transaction was submitted by
// one chaincode but whose write landed in another namespace — the
// cross-chaincode invocation shape.
func (f *fakeChain) commitNamespacedWrite(chaincode, ns string) {
	f.blocks = append(f.blocks, &ledger.Block{
		Number: uint64(len(f.blocks)),
		Transactions: []*ledger.Transaction{{
			Chaincode:  chaincode,
			Validation: ledger.Valid,
			RWSet:      ledger.RWSet{Writes: []ledger.KVWrite{{Namespace: ns, Key: "k"}}},
		}},
	})
}

// TestAttestationCacheExactWriteNamespaces: invalidation follows the
// namespaces transactions actually wrote, not the chaincode that submitted
// them. A proxy chaincode writing into "docs" through a cross-chaincode
// call invalidates "docs" entries — and a write submitted by "docs" whose
// writes all land elsewhere leaves "docs" entries alone.
func TestAttestationCacheExactWriteNamespaces(t *testing.T) {
	nowFn, _ := testClock(time.Unix(1000, 0))
	c := newAttestationCache(8, time.Minute, nowFn)
	chain := &fakeChain{}
	chain.commitWrite("docs")
	c.advance(chain)

	docsKey := attestCacheKey([]byte("docs-q"), nil, nil, nil)
	proxyKey := attestCacheKey([]byte("proxy-q"), nil, nil, nil)
	storeEntry(c, docsKey, []byte("docs-resp"), "docs", chain.Height())
	storeEntry(c, proxyKey, []byte("proxy-resp"), "proxy", chain.Height())

	// A tx submitted by "proxy" that wrote into "docs" must kill the docs
	// entry, even though no tx with Chaincode == "docs" committed.
	chain.commitNamespacedWrite("proxy", "docs")
	c.advance(chain)
	if c.get(docsKey) != nil {
		t.Fatal("cross-chaincode write into docs did not invalidate the docs entry")
	}
	// ...and must NOT kill the proxy entry: proxy submitted the tx but its
	// own namespace was never written.
	if c.get(proxyKey) == nil {
		t.Fatal("entry invalidated by its chaincode merely submitting a tx that wrote elsewhere")
	}

	// Multi-namespace entries die when any of their namespaces is written.
	multiKey := attestCacheKey([]byte("multi-q"), nil, nil, nil)
	c.put(multiKey, []byte("m"), []string{"docs", "audit"}, chain.Height())
	chain.commitNamespacedWrite("other", "audit")
	c.advance(chain)
	if c.get(multiKey) != nil {
		t.Fatal("multi-namespace entry survived a write to one of its namespaces")
	}
}

// auditChaincode is an unrelated contract sharing the ledger with docs.
var auditChaincode = chaincode.Func(func(stub chaincode.Stub) ([]byte, error) {
	args := stub.Args()
	if stub.Function() == "log" && len(args) == 2 {
		return nil, stub.PutState(string(args[0]), args[1])
	}
	return stub.GetState(string(args[0]))
})

// TestDriverCacheSurvivesUnrelatedChaincodeWrite is the end-to-end
// regression for exact namespace invalidation: with state namespaced per
// chaincode, a commit to chaincode "audit" must not evict a cached proof
// for a query that only read "docs" (and the interop system chaincodes) —
// while a commit into "docs" still must.
func TestDriverCacheSurvivesUnrelatedChaincodeWrite(t *testing.T) {
	n := fabric.NewNetwork("tradelens", orderer.Config{BatchSize: 1})
	for _, org := range []string{"seller-org", "carrier-org"} {
		if _, err := n.AddOrg(org, 1); err != nil {
			t.Fatalf("AddOrg %s: %v", org, err)
		}
	}
	sysPolicy := "OR('seller-org','carrier-org')"
	if err := n.Deploy(syscc.ECCName, &syscc.ECC{}, sysPolicy); err != nil {
		t.Fatalf("Deploy ECC: %v", err)
	}
	if err := n.Deploy(syscc.CMDACName, &syscc.CMDAC{}, sysPolicy); err != nil {
		t.Fatalf("Deploy CMDAC: %v", err)
	}
	if err := n.Deploy("docs", docsChaincode, "AND('seller-org','carrier-org')"); err != nil {
		t.Fatalf("Deploy docs: %v", err)
	}
	if err := n.Deploy("audit", auditChaincode, sysPolicy); err != nil {
		t.Fatalf("Deploy audit: %v", err)
	}
	org, _ := n.Org("seller-org")
	adminID, err := org.CA.Issue("stl-admin", msp.RoleAdmin)
	if err != nil {
		t.Fatalf("Issue admin: %v", err)
	}
	admin := n.Gateway(adminID)

	req := newRequester(t)
	if _, err := admin.Submit(syscc.CMDACName, syscc.CMDACSetNetworkConfig, req.cfg.Marshal()); err != nil {
		t.Fatalf("SetNetworkConfig: %v", err)
	}
	rule := policy.AccessRule{Network: "we-trade", Org: "seller-bank-org", Chaincode: "docs", Function: "GetDoc"}
	ruleJSON, _ := rule.Marshal()
	if _, err := admin.Submit(syscc.ECCName, syscc.ECCAddRule, ruleJSON); err != nil {
		t.Fatalf("AddAccessRule: %v", err)
	}
	if _, err := admin.Submit("docs", "PutDoc", []byte("bl-77"), []byte(`{"bl":"77"}`)); err != nil {
		t.Fatalf("PutDoc: %v", err)
	}

	d := NewFabricDriver(n, "default")
	var hits, misses int
	d.OnAttestationCache(func() { hits++ }, func() { misses++ })

	q := newQuery(t, req) // one fixed nonce: every send is the identical question
	ctx := context.Background()
	query := func(stage string) {
		t.Helper()
		resp, err := d.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: Query: %v", stage, err)
		}
		if resp.Error != "" {
			t.Fatalf("%s: remote error: %s", stage, resp.Error)
		}
	}

	// The first send misses and stores its response; the second is a
	// verbatim hit.
	query("warm")
	query("first-hit")
	if hits != 1 || misses != 1 {
		t.Fatalf("after warmup: hits=%d misses=%d, want 1/1", hits, misses)
	}

	// A commit into an unrelated chaincode's namespace must leave the
	// cached proof servable.
	if _, err := admin.Submit("audit", "log", []byte("evt-1"), []byte("x")); err != nil {
		t.Fatalf("audit log: %v", err)
	}
	query("after-unrelated-write")
	if hits != 2 {
		t.Fatalf("unrelated write evicted the cached proof: hits=%d misses=%d", hits, misses)
	}

	// A commit into a namespace the query read still invalidates. The write
	// targets a different document, so the query's result bytes — and hence
	// its cache key — are unchanged; only namespace invalidation can (and
	// must) force the rebuild.
	if _, err := admin.Submit("docs", "PutDoc", []byte("bl-99"), []byte(`{"bl":"99"}`)); err != nil {
		t.Fatalf("PutDoc 2: %v", err)
	}
	query("after-docs-write")
	if misses != 2 {
		t.Fatalf("write into a read namespace did not invalidate: hits=%d misses=%d", hits, misses)
	}
}
