package relay

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/chaincode"
	"repro/internal/cryptoutil"
	"repro/internal/endorsement"
	"repro/internal/msp"
	"repro/internal/proof"
	"repro/internal/wire"
)

// newCacheEnv is a source network holding one document, with its driver
// registered on a relay so cache outcomes reach Stats.
func newCacheEnv(t *testing.T) (*sourceEnv, *requester) {
	t.Helper()
	src := newSourceEnv(t, NewStaticRegistry(), NewHub())
	req := newRequester(t)
	configureInterop(t, src, req)
	if _, err := src.admin.Submit("docs", "PutDoc", []byte("bl-77"), []byte(`{"bl":"77"}`)); err != nil {
		t.Fatalf("PutDoc: %v", err)
	}
	return src, req
}

// TestDriverCacheSecondTouchIsHit: the build a first query pays is stored at
// once, so the second and third identical queries are served verbatim —
// no signature, no seal and no agreement beyond the first build's.
func TestDriverCacheSecondTouchIsHit(t *testing.T) {
	src, req := newCacheEnv(t)
	q := newQuery(t, req) // one fixed nonce: every send is the identical question
	query := func(stage string) {
		t.Helper()
		resp, err := src.driver.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: Query: %v", stage, err)
		}
		if resp.Error != "" {
			t.Fatalf("%s: remote error: %s", stage, resp.Error)
		}
	}

	query("first")
	ecdh, sign, encrypt := src.driver.CryptoOps()
	if sign == 0 || encrypt == 0 {
		t.Fatalf("first query built nothing: sign=%d encrypt=%d", sign, encrypt)
	}
	query("second")
	query("third")
	s := src.relay.Stats()
	if s.AttestationCacheHits != 2 || s.AttestationCacheJoins != 0 || s.AttestationCacheMisses != 1 {
		t.Fatalf("hits/joins/misses = %d/%d/%d, want 2/0/1", s.AttestationCacheHits, s.AttestationCacheJoins, s.AttestationCacheMisses)
	}
	e, sg, en := src.driver.CryptoOps()
	if e != ecdh || sg != sign || en != encrypt {
		t.Fatalf("cache hits performed crypto: ecdh +%d, sign +%d, encrypt +%d", e-ecdh, sg-sign, en-encrypt)
	}
}

// TestDriverCacheHitOwnsItsResponse: a hit is a stamped copy of the cache
// entry that the caller owns. A caller that overwrites every byte of one
// hit's payload changes nothing the next hit serves: it is byte-identical
// to the first, carries its own request ID, and the requester still opens
// and verifies it. Run with and without a request ID, since an empty ID
// stamps nothing and so is where a stamp could most easily alias.
func TestDriverCacheHitOwnsItsResponse(t *testing.T) {
	for name, id := range map[string]string{"without-id": "", "with-id": "req-owns-its-hit"} {
		t.Run(name, func(t *testing.T) {
			src, req := newCacheEnv(t)
			q := newQuery(t, req)
			q.RequestID = id
			hit := func() []byte {
				t.Helper()
				raw, err := src.driver.ServeQuery(context.Background(), q)
				if err != nil {
					t.Fatalf("ServeQuery: %v", err)
				}
				return raw
			}
			hit() // the build, stored
			first := hit()
			want := bytes.Clone(first)
			for i := range first {
				first[i] = 0xA5
			}
			second := hit()
			if s := src.relay.Stats(); s.AttestationCacheHits != 2 {
				t.Fatalf("cache hits = %d, want 2", s.AttestationCacheHits)
			}
			if !bytes.Equal(second, want) {
				t.Fatal("overwriting one hit's payload changed the next hit")
			}

			resp, err := wire.UnmarshalQueryResponse(second)
			if err != nil || resp.Error != "" {
				t.Fatalf("decode hit: %v", respError(resp, err))
			}
			if resp.RequestID != id {
				t.Fatalf("hit stamped with request ID %q, want %q", resp.RequestID, id)
			}
			if len(resp.Attestations) == 0 {
				t.Fatal("hit carries no attestations")
			}
			bundle, err := proof.OpenResponse(cryptoutil.NewRecipient(req.key), q, resp)
			if err != nil {
				t.Fatalf("OpenResponse: %v", err)
			}
			roots := make(map[string][]byte)
			for _, o := range src.net.ExportConfig().Orgs {
				roots[o.OrgID] = o.RootCertPEM
			}
			verifier, err := msp.NewVerifier(roots)
			if err != nil {
				t.Fatalf("NewVerifier: %v", err)
			}
			vp := endorsement.MustParse(q.PolicyExpr)
			if err := proof.Verify(bundle, verifier, vp, proof.QueryDigestOf(q), proof.PolicyDigest(q.PolicyExpr)); err != nil {
				t.Fatalf("Verify: %v", err)
			}
		})
	}
}

// TestDriverCacheHitIsOneStampedCopy is the allocation tripwire of a warm
// hit: serving the entry is one allocation — the stamped copy — so it
// neither decodes (UnmarshalQueryResponse allocates the response and its
// attestations) nor re-encodes the cached response. Each resend of the
// question is stamped with its own ID, and the entry stays ID-less.
func TestDriverCacheHitIsOneStampedCopy(t *testing.T) {
	src, req := newCacheEnv(t)
	q := newQuery(t, req)
	for _, id := range []string{"req-1", "req-2"} {
		q.RequestID = id
		raw, err := src.driver.ServeQuery(context.Background(), q)
		if err != nil {
			t.Fatalf("ServeQuery %s: %v", id, err)
		}
		resp, err := wire.UnmarshalQueryResponse(raw)
		if err != nil || resp.RequestID != id {
			t.Fatalf("ServeQuery %s: decoded ID %q, err %v", id, resp.RequestID, err)
		}
	}
	if s := src.relay.Stats(); s.AttestationCacheHits != 1 || s.AttestationCacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", s.AttestationCacheHits, s.AttestationCacheMisses)
	}
	var key string
	for k := range src.driver.cache.entries {
		key = k
	}
	entry := src.driver.cache.get(key)
	if cached, err := wire.UnmarshalQueryResponse(bytes.Clone(entry)); err != nil || cached.RequestID != "" {
		t.Fatalf("cache entry: ID %q, err %v; want an ID-less response", cached.RequestID, err)
	}
	if got := testing.AllocsPerRun(100, func() { _ = src.driver.cachedResponse(key, "req-3") }); got != 1 {
		t.Fatalf("a warm hit costs %v allocations, want 1", got)
	}
}

// TestDriverCacheStoresEveryColdBuild: every fresh build takes one entry,
// up to the LRU bound and never past it.
func TestDriverCacheStoresEveryColdBuild(t *testing.T) {
	src, req := newCacheEnv(t)
	for i := 1; i <= defaultAttestCacheSize+8; i++ {
		if _, err := src.driver.Query(context.Background(), newQuery(t, req)); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got, want := src.driver.cache.len(), min(i, defaultAttestCacheSize); got != want {
			t.Fatalf("after %d distinct queries: %d entries, want %d", i, got, want)
		}
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

// cacheProbe serves q through the driver and reports whether the response
// came from the cache, with the decoded response.
func cacheProbe(t *testing.T, src *sourceEnv, q *wire.Query) func(stage string) (bool, *wire.QueryResponse) {
	return func(stage string) (bool, *wire.QueryResponse) {
		t.Helper()
		before := src.relay.Stats().AttestationCacheHits
		resp, err := src.driver.Query(context.Background(), q)
		if err != nil || resp.Error != "" {
			t.Fatalf("%s: %v", stage, respError(resp, err))
		}
		return src.relay.Stats().AttestationCacheHits > before, resp
	}
}

// TestDriverCacheSurvivesUnrelatedChaincodeWrite: the cache key carries the
// version of every key the query read, so a commit misses exactly when it
// touched read state. A write to another chaincode, or to another key of
// the chaincode the query reads, leaves the cached proof servable; a
// rewrite of the read document misses even when it restores identical
// bytes (ABA), and so does a changed value.
func TestDriverCacheSurvivesUnrelatedChaincodeWrite(t *testing.T) {
	src, req := newCacheEnv(t)
	if err := src.net.Deploy("audit", auditChaincode, "OR('seller-org','carrier-org')"); err != nil {
		t.Fatalf("Deploy audit: %v", err)
	}
	serve := cacheProbe(t, src, newQuery(t, req)) // one fixed nonce: every send is the identical question
	if hit, _ := serve("build"); hit {
		t.Fatal("first query was a hit")
	}
	if hit, _ := serve("resend"); !hit {
		t.Fatal("identical resend missed")
	}
	for _, c := range []struct {
		name          string
		chaincode, fn string
		key, value    string
		wantHit       bool
	}{
		{"write to another chaincode", "audit", "log", "evt-1", "x", true},
		{"write to another docs key", "docs", "PutDoc", "bl-99", `{"bl":"99"}`, true},
		{"bl-77 rewritten with identical bytes", "docs", "PutDoc", "bl-77", `{"bl":"77"}`, false},
		{"bl-77 changed", "docs", "PutDoc", "bl-77", `{"bl":"78"}`, false},
	} {
		if _, err := src.admin.Submit(c.chaincode, c.fn, []byte(c.key), []byte(c.value)); err != nil {
			t.Fatalf("%s: Submit: %v", c.name, err)
		}
		if hit, _ := serve(c.name); hit != c.wantHit {
			t.Fatalf("%s: hit = %v, want %v", c.name, hit, c.wantHit)
		}
		if hit, _ := serve(c.name + ", resent"); !hit {
			t.Fatalf("%s: its resend missed", c.name)
		}
	}
}

// TestDriverCacheMissesAfterOrgRemoval: the attestor set is part of the
// key. After an attestor's org leaves the network, a fresh build attests
// with the remaining org only, so the cached proof — signed partly by the
// removed org's peer — must not be served.
func TestDriverCacheMissesAfterOrgRemoval(t *testing.T) {
	src, req := newCacheEnv(t)
	serve := cacheProbe(t, src, newQuery(t, req))
	serve("build")
	if hit, resp := serve("resend"); !hit || len(resp.Attestations) != 2 {
		t.Fatalf("resend: hit = %v with %d attestations, want a hit with 2", hit, len(resp.Attestations))
	}
	if err := src.net.RemoveOrg("carrier-org"); err != nil {
		t.Fatalf("RemoveOrg: %v", err)
	}
	if hit, resp := serve("after removal"); hit || len(resp.Attestations) != 1 {
		t.Fatalf("after RemoveOrg: hit = %v with %d attestations, want a miss with 1", hit, len(resp.Attestations))
	}
}
