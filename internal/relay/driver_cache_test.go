package relay

import (
	"bytes"
	"context"
	"testing"

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

// TestDriverCacheHitOwnsItsResponse: decoded responses alias the bytes they
// were decoded from, so a hit decodes a private copy of the cache entry. A
// caller that overwrites every byte slice of one hit's response changes
// nothing the next hit serves, and the requester still opens and verifies
// that next hit.
func TestDriverCacheHitOwnsItsResponse(t *testing.T) {
	src, req := newCacheEnv(t)
	q := newQuery(t, req)
	hit := func() *wire.QueryResponse {
		t.Helper()
		resp, err := src.driver.Query(context.Background(), q)
		if err != nil || resp.Error != "" {
			t.Fatalf("Query: %v", respError(resp, err))
		}
		return resp
	}
	hit() // the build, stored
	first := hit()
	want := first.Marshal()
	if len(first.Attestations) == 0 {
		t.Fatal("hit carries no attestations")
	}
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 0xA5
		}
	}
	scribble(first.EncryptedResult)
	for i := range first.Attestations {
		a := &first.Attestations[i]
		for _, b := range [][]byte{a.CertPEM, a.EncryptedMetadata, a.Signature, a.SessionEphemeral} {
			scribble(b)
		}
	}
	second := hit()
	if s := src.relay.Stats(); s.AttestationCacheHits != 2 {
		t.Fatalf("cache hits = %d, want 2", s.AttestationCacheHits)
	}
	if !bytes.Equal(second.Marshal(), want) {
		t.Fatal("overwriting one hit's response changed the next hit")
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
