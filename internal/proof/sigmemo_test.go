package proof

import (
	"bytes"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"errors"
	"math/big"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/cryptoutil"
	"repro/internal/endorsement"
	"repro/internal/msp"
)

// lapsedPeer issues a peer identity of org whose certificate expired a day
// ago under a root that is still valid, and returns it with the verifier
// that records that root.
func lapsedPeer(t *testing.T, org string) (*msp.Identity, *msp.Verifier) {
	t.Helper()
	now := time.Now()
	issue := func(tmpl, parent *x509.Certificate, pub, signer any) *x509.Certificate {
		der, err := x509.CreateCertificate(rand.Reader, tmpl, parent, pub, signer)
		if err != nil {
			t.Fatalf("CreateCertificate: %v", err)
		}
		cert, err := x509.ParseCertificate(der)
		if err != nil {
			t.Fatalf("ParseCertificate: %v", err)
		}
		return cert
	}
	rootKey, _ := cryptoutil.GenerateKey()
	rootTmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: org + "-ca", Organization: []string{org}},
		NotBefore:             now.Add(-48 * time.Hour),
		NotAfter:              now.Add(48 * time.Hour),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	root := issue(rootTmpl, rootTmpl, &rootKey.PublicKey, rootKey)
	key, _ := cryptoutil.GenerateKey()
	leaf := issue(&x509.Certificate{
		SerialNumber: big.NewInt(2),
		Subject:      pkix.Name{CommonName: "peer0", Organization: []string{org}, OrganizationalUnit: []string{"peer"}},
		NotBefore:    now.Add(-48 * time.Hour),
		NotAfter:     now.Add(-24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageClientAuth},
	}, root, &key.PublicKey, rootKey)
	verifier, err := msp.NewVerifier(map[string][]byte{
		org: pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: root.Raw}),
	})
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	return &msp.Identity{Name: "peer0", OrgID: org, Role: msp.RolePeer, Cert: leaf, Key: key}, verifier
}

// A remembered signature verdict does not outlive the certificate: the
// attestor's validity window is checked on every Verify, before the memo.
func TestVerifyRefusesExpiredAttestorWithRememberedSignature(t *testing.T) {
	peer, verifier := lapsedPeer(t, "lapsed-org")
	q := sampleQuery(t)
	q.PolicyExpr = "OR('lapsed-org')"
	bundle := buildBundle(t, q, []byte("doc"), peer)
	el := bundle.Elements[0]
	signed := batchSigDigest(merkleLeafHash(el.Metadata))
	if err := msp.VerifySignature(peer.Cert, signed[:], el.Signature); err != nil {
		t.Fatalf("seeding the signature memo: %v", err)
	}
	err := Verify(bundle, verifier, endorsement.MustParse(q.PolicyExpr), QueryDigestOf(q), PolicyDigest(q.PolicyExpr))
	if !errors.Is(err, ErrBadAttestation) || !strings.Contains(err.Error(), msp.ErrExpired.Error()) {
		t.Fatalf("expired attestor with a remembered signature: err = %v", err)
	}
}

// After a bundle verified, its remembered signatures vouch for nothing
// else: not under another certificate of the same organization, not with a
// byte flipped, not over another Merkle root.
func TestVerifyAfterRememberedSignature(t *testing.T) {
	sellerCA, _, sellerPeer, carrierPeer, verifier := setup(t)
	q := sampleQuery(t)
	vp := endorsement.MustParse(q.PolicyExpr)
	qd, pd := QueryDigestOf(q), PolicyDigest(q.PolicyExpr)
	bundle := buildBundle(t, q, []byte("doc"), sellerPeer, carrierPeer)
	if err := Verify(bundle, verifier, vp, qd, pd); err != nil {
		t.Fatalf("Verify: %v", err)
	}

	sellerPeer1, err := sellerCA.Issue("seller-org-peer1", msp.RolePeer)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	genuine := bundle.Elements[0]
	bundle.Elements[0].CertPEM = sellerPeer1.CertPEM()
	if err := Verify(bundle, verifier, vp, qd, pd); !errors.Is(err, ErrBadAttestation) {
		t.Fatalf("remembered signature under another seller-org peer: err = %v", err)
	}
	bundle.Elements[0] = genuine

	sig := genuine.Signature
	for _, i := range []int{0, len(sig) / 2, len(sig) - 1} {
		bundle.Elements[0].Signature = bytes.Clone(sig)
		bundle.Elements[0].Signature[i] ^= 0x01
		if err := Verify(bundle, verifier, vp, qd, pd); !errors.Is(err, ErrBadAttestation) {
			t.Fatalf("signature byte %d flipped after the original verified: err = %v", i, err)
		}
	}
	bundle.Elements[0].Signature = sig
	if err := Verify(bundle, verifier, vp, qd, pd); err != nil {
		t.Fatalf("the original after the refusals: %v", err)
	}

	// A window's queries share one signature per attestor: the second
	// bundle is a remembered verdict, and the same signature over a root
	// its rewritten inclusion path computes is not.
	queries, keys, specs, resps, verifier := windowFixture(t, 2)
	var bundles []*Bundle
	for i := range queries {
		b, err := OpenResponse(cryptoutil.NewRecipient(keys[i]), queries[i], resps[i])
		if err != nil {
			t.Fatalf("OpenResponse %d: %v", i, err)
		}
		if err := Verify(b, verifier, vp, specs[i].QueryDigest, specs[i].PolicyDigest); err != nil {
			t.Fatalf("window bundle %d: %v", i, err)
		}
		bundles = append(bundles, b)
	}
	b := bundles[1]
	b.Elements[0].BatchPath = [][]byte{bytes.Repeat([]byte{0xAB}, cryptoutil.DigestSize)}
	if err := Verify(b, verifier, vp, specs[1].QueryDigest, specs[1].PolicyDigest); !errors.Is(err, ErrBadAttestation) {
		t.Fatalf("remembered window signature over another root: err = %v", err)
	}
}

// TestHopChainRememberedSignature: a pin whose signature verified once is
// refused with a byte of that signature flipped, and still verifies as it
// was.
func TestHopChainRememberedSignature(t *testing.T) {
	f := buildChain(t, 2)
	if _, err := VerifyHopChain(f.q, f.resp); err != nil {
		t.Fatalf("VerifyHopChain: %v", err)
	}
	sig := f.resp.HopPins[1].Signature
	f.resp.HopPins[1].Signature = bytes.Clone(sig)
	f.resp.HopPins[1].Signature[len(sig)-1] ^= 0x01
	if _, err := VerifyHopChain(f.q, f.resp); !errors.Is(err, ErrBadHopChain) {
		t.Fatalf("pin signature flipped after it verified: err = %v", err)
	}
	f.resp.HopPins[1].Signature = sig
	if _, err := VerifyHopChain(f.q, f.resp); err != nil {
		t.Fatalf("the original after the refusal: %v", err)
	}
}

// TestWarmVerifyAllocations is the tripwire of the signature memo and of
// the stack-held metadata. A second verification of the same bundle or hop
// chain runs no ECDSA, so it must allocate fewer objects than the one
// ecdsa.VerifyASN1 it skips (10). Verify and OpenResponse decode each
// attestor's metadata only to read it, so it stays on their stacks and its
// names are interned, and its signer list is a stack array: a warm Verify
// of two attestors allocates nothing, and a Metadata or signer list that
// escapes again adds allocations to these rows. A window's bundle also
// recomputes its Merkle root, over hashes held by value, so it allocates
// no more than a lone bundle. The hop chain hashes its response
// core, anchor and pins through pooled walks, so its row holds today's
// count too, except under the race detector, which drops pooled state at
// random. A change may lower a row, never raise it.
func TestWarmVerifyAllocations(t *testing.T) {
	const verifyASN1Allocs = 10
	hopChainAllocs := 3.0
	if raceEnabled {
		hopChainAllocs = verifyASN1Allocs - 1
	}
	_, _, sellerPeer, carrierPeer, verifier := setup(t)
	q := sampleQuery(t)
	vp := endorsement.MustParse(q.PolicyExpr)
	qd, pd := QueryDigestOf(q), PolicyDigest(q.PolicyExpr)
	spec, clientKey := testSpec(t, q, []byte("doc"))
	resp, recipient := buildOne(t, spec, sellerPeer, carrierPeer), cryptoutil.NewRecipient(clientKey)
	bundle, err := OpenResponse(recipient, q, resp)
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}

	queries, keys, specs, resps, windowVerifier := windowFixture(t, 2)
	batched, err := OpenResponse(cryptoutil.NewRecipient(keys[0]), queries[0], resps[0])
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}
	chain := buildChain(t, 2)

	for _, row := range []struct {
		name string
		max  float64
		fn   func() error
	}{
		{"warm Verify, two attestors", 0, func() error { return Verify(bundle, verifier, vp, qd, pd) }},
		{"warm OpenResponse, two attestors", 4, func() error { _, err := OpenResponse(recipient, q, resp); return err }},
		{"warm Verify, two attestors in a window of 2", 0, func() error {
			return Verify(batched, windowVerifier, vp, specs[0].QueryDigest, specs[0].PolicyDigest)
		}},
		{"warm VerifyHopChain, two pins", hopChainAllocs, func() error { _, err := VerifyHopChain(chain.q, chain.resp); return err }},
	} {
		if err := row.fn(); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if got := testing.AllocsPerRun(100, func() { _ = row.fn() }); got > row.max {
			t.Errorf("%s: %v allocations, want <= %v", row.name, got, row.max)
		} else {
			t.Logf("%s: %v allocations", row.name, got)
		}
	}
}

// TestSessionOpenedPartsShareOneBuffer: OpenResponse opens the result and
// every attestor's metadata into the one buffer that holds the query
// digest, each part clipped to its length, so appending to one part
// reallocates and leaves the next intact, and the bundle still verifies.
func TestSessionOpenedPartsShareOneBuffer(t *testing.T) {
	_, _, sellerPeer, carrierPeer, verifier := setup(t)
	q := sampleQuery(t)
	spec, clientKey := testSpec(t, q, []byte("doc"))
	b, err := OpenResponse(cryptoutil.NewRecipient(clientKey), q, buildOne(t, spec, sellerPeer, carrierPeer))
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}
	parts := [][]byte{b.QueryDigest, b.Result}
	for i := range b.Elements {
		parts = append(parts, b.Elements[i].Metadata)
	}
	for i, p := range parts {
		if len(p) != cap(p) {
			t.Fatalf("part %d: len %d, cap %d; want it clipped", i, len(p), cap(p))
		}
		if i == 0 {
			continue
		}
		if prev := parts[i-1]; unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev)), len(prev)) != unsafe.Pointer(unsafe.SliceData(p)) {
			t.Fatalf("part %d does not follow part %d in one buffer", i, i-1)
		}
	}
	if !bytes.Equal(b.QueryDigest, QueryDigestOf(q)) || !bytes.Equal(b.Result, []byte("doc")) {
		t.Fatalf("opened query digest %x, result %q", b.QueryDigest, b.Result)
	}
	md := bytes.Clone(b.Elements[0].Metadata)
	_ = append(b.Result, "overflow"...)
	if !bytes.Equal(b.Elements[0].Metadata, md) {
		t.Fatal("appending to Result wrote into the next part")
	}
	if err := Verify(b, verifier, endorsement.MustParse(q.PolicyExpr), b.QueryDigest, PolicyDigest(q.PolicyExpr)); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}
