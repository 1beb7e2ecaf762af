package relay

import (
	"context"
	"testing"
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
