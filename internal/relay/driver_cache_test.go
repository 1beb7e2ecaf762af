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

// TestDriverCacheHitOwnsItsResponse: ServeQuery hands out the cache entry
// itself, ID-less and read-only, and Query decodes a copy that the caller
// owns. A caller that overwrites every byte field of one hit's decoded
// response changes nothing that later hits serve: ServeQuery returns the
// same bytes, and Query decodes a response byte-identical to the first,
// with its own request ID, which the requester still opens and verifies.
// Run with and without a request ID.
func TestDriverCacheHitOwnsItsResponse(t *testing.T) {
	for name, id := range map[string]string{"without-id": "", "with-id": "req-owns-its-hit"} {
		t.Run(name, func(t *testing.T) {
			src, req := newCacheEnv(t)
			q := newQuery(t, req)
			q.RequestID = id
			hit := func() *wire.QueryResponse {
				t.Helper()
				resp, err := src.driver.Query(context.Background(), q)
				if err != nil || resp.Error != "" {
					t.Fatalf("Query: %v", respError(resp, err))
				}
				return resp
			}
			hit() // the build, stored
			entry, err := src.driver.ServeQuery(context.Background(), q)
			if err != nil {
				t.Fatalf("ServeQuery: %v", err)
			}
			wantEntry := bytes.Clone(entry)
			first := hit()
			want := first.Marshal()
			scribble(first)
			second := hit()
			if s := src.relay.Stats(); s.AttestationCacheHits != 3 {
				t.Fatalf("cache hits = %d, want 3", s.AttestationCacheHits)
			}
			if again, err := src.driver.ServeQuery(context.Background(), q); err != nil || !bytes.Equal(again, wantEntry) {
				t.Fatalf("overwriting a decoded hit changed the served entry (err %v)", err)
			}
			if !bytes.Equal(second.Marshal(), want) {
				t.Fatal("overwriting one decoded hit changed the next")
			}
			if second.RequestID != id {
				t.Fatalf("hit stamped with request ID %q, want %q", second.RequestID, id)
			}
			if len(second.Attestations) == 0 {
				t.Fatal("hit carries no attestations")
			}
			bundle, err := proof.OpenResponse(cryptoutil.NewRecipient(req.key), q, second)
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

// scribble overwrites every byte field of a decoded response, which is
// every byte it may alias.
func scribble(resp *wire.QueryResponse) {
	fields := [][]byte{resp.EncryptedResult, resp.PolicyDigest, resp.SessionEphemeral}
	for _, a := range resp.Attestations {
		fields = append(fields, a.CertPEM, a.EncryptedMetadata, a.Signature, a.SessionEphemeral)
		fields = append(fields, a.BatchPath...)
	}
	for _, p := range resp.HopPins {
		fields = append(fields, p.CertPEM, p.Pin, p.Signature)
	}
	for _, f := range fields {
		for i := range f {
			f[i] = 0xA5
		}
	}
}

// TestDriverCacheHitIsTheEntry is the allocation tripwire of a warm hit:
// ServeQuery returns the cache entry itself, the same bytes for every
// resend of the question whatever its request ID, so serving it neither
// copies, decodes nor re-encodes the cached response, and the lookup
// allocates nothing. The entry stays ID-less; the relay stamps each
// resend's ID as it writes the reply.
func TestDriverCacheHitIsTheEntry(t *testing.T) {
	src, req := newCacheEnv(t)
	q := newQuery(t, req)
	var served [][]byte
	for _, id := range []string{"req-1", "req-2", "req-3"} {
		q.RequestID = id
		raw, err := src.driver.ServeQuery(context.Background(), q)
		if err != nil {
			t.Fatalf("ServeQuery %s: %v", id, err)
		}
		served = append(served, raw)
	}
	if s := src.relay.Stats(); s.AttestationCacheHits != 2 || s.AttestationCacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", s.AttestationCacheHits, s.AttestationCacheMisses)
	}
	var key cacheKey
	for k := range src.driver.cache.entries {
		key = k
	}
	entry := src.driver.cache.get(key)
	for i, raw := range served {
		if len(raw) == 0 || &raw[0] != &entry[0] || len(raw) != len(entry) {
			t.Fatalf("serve %d returned other bytes than the cache entry", i)
		}
	}
	if cached, err := wire.UnmarshalQueryResponse(bytes.Clone(entry)); err != nil || cached.RequestID != "" {
		t.Fatalf("cache entry: ID %q, err %v; want an ID-less response", cached.RequestID, err)
	}
	if got := testing.AllocsPerRun(100, func() { _ = src.driver.cache.get(key) }); got != 0 {
		t.Fatalf("a warm cache lookup costs %v allocations, want 0", got)
	}
}

// TestServeQueryHitAllocations is the allocation tripwire of a warm cache
// hit on a query sent as a client sends it, its policy pin stamped. A hit
// reads the state on each attestor, keys the cache and returns the entry.
// Of its 12 allocations the driver and the chaincode layer make 4: each of
// the two peer reads' frame and access-rule scan. The test contract's
// GetDoc makes the other 8, 4 per read: its ECC argument list, two of its
// arguments and its key. A change may lower the row, never raise it.
func TestServeQueryHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	src, req := newCacheEnv(t)
	q := newQuery(t, req)
	q.PolicyDigest = proof.PolicyDigest(q.PolicyExpr)
	if _, err := src.driver.ServeQuery(context.Background(), q); err != nil {
		t.Fatalf("cold ServeQuery: %v", err)
	}
	ctx := context.Background()
	got := testing.AllocsPerRun(200, func() {
		if _, err := src.driver.ServeQuery(ctx, q); err != nil {
			t.Fatalf("warm ServeQuery: %v", err)
		}
	})
	if s := src.relay.Stats(); s.AttestationCacheMisses != 1 {
		t.Fatalf("%d misses, want the cold query's alone", s.AttestationCacheMisses)
	}
	const max = 12
	if got > max {
		t.Fatalf("a warm cache hit costs %v allocations, want <= %v", got, max)
	}
	t.Logf("a warm cache hit costs %v allocations", got)
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
