package proof

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/endorsement"
	"repro/internal/msp"
	"repro/internal/wire"
)

// windowFixture builds a window of n distinct queries (fresh nonce and
// result each) from n distinct requesters in one Build call over the
// standard two-org attestor set.
func windowFixture(t *testing.T, n int) (queries []*wire.Query, keys []*ecdsa.PrivateKey, specs []Spec, resps []*wire.QueryResponse, verifier *msp.Verifier) {
	t.Helper()
	_, _, sellerPeer, carrierPeer, v := setup(t)
	for i := 0; i < n; i++ {
		q := sampleQuery(t)
		q.RequestID = fmt.Sprintf("req-batch-%d", i)
		spec, key := testSpec(t, q, []byte(fmt.Sprintf(`{"blId":"bl-%d"}`, i)))
		queries = append(queries, q)
		keys = append(keys, key)
		specs = append(specs, spec)
	}
	resps, err := NewBuilder(0, nil).Build(context.Background(), specs, []*msp.Identity{sellerPeer, carrierPeer})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(resps) != n {
		t.Fatalf("responses = %d, want %d", len(resps), n)
	}
	return queries, keys, specs, resps, v
}

func TestBuildWindowProducesVerifiableProofs(t *testing.T) {
	const n = 3
	queries, keys, specs, resps, verifier := windowFixture(t, n)
	vp := endorsement.MustParse(queries[0].PolicyExpr)
	for i := 0; i < n; i++ {
		bundle, err := OpenResponse(cryptoutil.NewRecipient(keys[i]), queries[i], resps[i])
		if err != nil {
			t.Fatalf("OpenResponse %d: %v", i, err)
		}
		if !bytes.Equal(bundle.Result, specs[i].Result) {
			t.Fatalf("result %d = %q", i, bundle.Result)
		}
		for _, el := range bundle.Elements {
			if el.BatchSize != n {
				t.Fatalf("element batch size = %d, want %d", el.BatchSize, n)
			}
			if el.BatchIndex != uint64(i) {
				t.Fatalf("element batch index = %d, want %d", el.BatchIndex, i)
			}
		}
		if err := Verify(bundle, verifier, vp, specs[i].QueryDigest, specs[i].PolicyDigest); err != nil {
			t.Fatalf("Verify %d: %v", i, err)
		}
	}
}

func TestBuildWindowSharesOneSignaturePerAttestor(t *testing.T) {
	// The point of batching: within a window every query carries the SAME
	// signature from a given attestor — one ECDSA sign per attestor per
	// window regardless of window width.
	_, _, _, resps, _ := windowFixture(t, 4)
	for ai := range resps[0].Attestations {
		first := resps[0].Attestations[ai].Signature
		for qi := 1; qi < len(resps); qi++ {
			if !bytes.Equal(first, resps[qi].Attestations[ai].Signature) {
				t.Fatalf("attestor %d signed query %d separately", ai, qi)
			}
		}
	}
}

func TestBuildLoneSpecIsOneLeafTree(t *testing.T) {
	// A lone query is a window of one: size 1, index 0, an empty path, and
	// the signature covers the domain-separated root, which is the leaf
	// hash of the metadata itself.
	queries, keys, specs, resps, verifier := windowFixture(t, 1)
	bundle, err := OpenResponse(cryptoutil.NewRecipient(keys[0]), queries[0], resps[0])
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}
	for i, att := range resps[0].Attestations {
		if att.BatchSize != 1 || att.BatchIndex != 0 || len(att.BatchPath) != 0 {
			t.Fatalf("attestation %d: size %d, index %d, path of %d, want a one-leaf tree", i, att.BatchSize, att.BatchIndex, len(att.BatchPath))
		}
		cert, err := msp.ParseCertPEM(att.CertPEM)
		if err != nil {
			t.Fatalf("ParseCertPEM: %v", err)
		}
		signed := batchSigDigest(merkleLeafHash(bundle.Elements[i].Metadata))
		if err := cryptoutil.VerifyDigest(cert.PublicKey.(*ecdsa.PublicKey), signed[:], att.Signature); err != nil {
			t.Fatalf("attestation %d does not sign its one-leaf root: %v", i, err)
		}
	}
	vp := endorsement.MustParse(queries[0].PolicyExpr)
	if err := Verify(bundle, verifier, vp, specs[0].QueryDigest, specs[0].PolicyDigest); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestBatchedElementTamperingRejected(t *testing.T) {
	queries, keys, specs, resps, verifier := windowFixture(t, 3)
	vp := endorsement.MustParse(queries[0].PolicyExpr)
	open := func() *Bundle {
		t.Helper()
		b, err := OpenResponse(cryptoutil.NewRecipient(keys[1]), queries[1], resps[1])
		if err != nil {
			t.Fatalf("OpenResponse: %v", err)
		}
		return b
	}

	// BatchSize 0 names no tree at all and is refused, with or without
	// the path that came with the element.
	for _, stripPath := range []bool{false, true} {
		b := open()
		for i := range b.Elements {
			b.Elements[i].BatchSize = 0
			if stripPath {
				b.Elements[i].BatchPath = nil
			}
		}
		if err := Verify(b, verifier, vp, specs[1].QueryDigest, specs[1].PolicyDigest); !errors.Is(err, ErrBadAttestation) {
			t.Fatalf("size-0 element (path stripped: %v) accepted: %v", stripPath, err)
		}
	}

	// A lied-about leaf index recomputes a different root.
	b := open()
	b.Elements[0].BatchIndex = 0
	if err := Verify(b, verifier, vp, specs[1].QueryDigest, specs[1].PolicyDigest); !errors.Is(err, ErrBadAttestation) {
		t.Fatalf("wrong-index element accepted: %v", err)
	}

	// A corrupted sibling hash breaks the inclusion proof.
	b = open()
	b.Elements[0].BatchPath[0][0] ^= 0xff
	if err := Verify(b, verifier, vp, specs[1].QueryDigest, specs[1].PolicyDigest); !errors.Is(err, ErrBadAttestation) {
		t.Fatalf("corrupt-path element accepted: %v", err)
	}

	// A truncated path is structurally impossible for the claimed size.
	b = open()
	b.Elements[0].BatchPath = b.Elements[0].BatchPath[:1]
	if err := Verify(b, verifier, vp, specs[1].QueryDigest, specs[1].PolicyDigest); !errors.Is(err, ErrBadAttestation) {
		t.Fatalf("truncated-path element accepted: %v", err)
	}
}

func TestBatchedBundleSurvivesMarshalRoundTrip(t *testing.T) {
	// The batch fields ride inside the persisted Bundle encoding — a
	// destination peer that receives the serialized bundle (the Data
	// Acceptance path) must still be able to verify the batched proof.
	queries, keys, specs, resps, verifier := windowFixture(t, 3)
	bundle, err := OpenResponse(cryptoutil.NewRecipient(keys[2]), queries[2], resps[2])
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}
	decoded, err := UnmarshalBundle(bundle.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalBundle: %v", err)
	}
	vp := endorsement.MustParse(queries[2].PolicyExpr)
	if err := Verify(decoded, verifier, vp, specs[2].QueryDigest, specs[2].PolicyDigest); err != nil {
		t.Fatalf("Verify after round trip: %v", err)
	}
}

// buildCancelled runs Build over an n-query window with an already
// cancelled context and fails unless it reports context.Canceled.
func buildCancelled(t *testing.T, n int) {
	t.Helper()
	_, _, sellerPeer, carrierPeer, _ := setup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var specs []Spec
	for i := 0; i < n; i++ {
		spec, _ := testSpec(t, sampleQuery(t), []byte("r"))
		specs = append(specs, spec)
	}
	if _, err := NewBuilder(0, nil).Build(ctx, specs, []*msp.Identity{sellerPeer, carrierPeer}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled %d-query build produced a proof: %v", n, err)
	}
}

func TestBuildHonorsCancelledContext(t *testing.T) { buildCancelled(t, 1) }

func TestBuildBatchHonorsCancelledContext(t *testing.T) { buildCancelled(t, 2) }

// gatedCurve is P-256 whose Params — the first thing ECDSA signing asks of
// a key — waits for gate: an attestor keyed on it cannot sign until the
// test lets it.
type gatedCurve struct {
	elliptic.Curve
	gate <-chan struct{}
}

func (c gatedCurve) Params() *elliptic.CurveParams {
	<-c.gate
	return c.Curve.Params()
}

func TestBuildResultFailureCancelsAttestors(t *testing.T) {
	// The attestor managers already hold a session secret for the
	// requester, so sealing its metadata cannot fail; the result manager
	// cannot agree with the requester's key (a P-384 point), so sealing its
	// result fails on the first spec. The attestors cannot sign while that
	// happens: once released, only cancellation stops them from sealing the
	// whole window.
	_, _, sellerPeer, carrierPeer, _ := setup(t)
	gate := make(chan struct{})
	var attestors []*msp.Identity
	for _, id := range []*msp.Identity{sellerPeer, carrierPeer} {
		key := &ecdsa.PrivateKey{D: id.Key.D, PublicKey: ecdsa.PublicKey{
			Curve: gatedCurve{elliptic.P256(), gate}, X: id.Key.X, Y: id.Key.Y}}
		attestors = append(attestors, &msp.Identity{Name: id.Name, OrgID: id.OrgID, Role: id.Role, Cert: id.Cert, Key: key})
	}
	var ops cryptoutil.OpCounter
	b := NewBuilder(0, &ops)
	good, _ := cryptoutil.GenerateKey()
	for _, id := range attestors {
		if _, err := b.forAttestor(id).KeyFor("warm", &good.PublicKey); err != nil {
			t.Fatalf("warm %s: %v", id.Name, err)
		}
	}
	foreign, err := ecdsa.GenerateKey(elliptic.P384(), rand.Reader)
	if err != nil {
		t.Fatalf("P-384 key: %v", err)
	}
	const n = 8
	specs := make([]Spec, n)
	for i := range specs {
		specs[i], _ = testSpec(t, sampleQuery(t), []byte("r"))
		specs[i].ClientPub, specs[i].RequesterLabel = &foreign.PublicKey, "warm"
	}

	done := make(chan error, 1)
	go func() {
		_, err := b.Build(context.Background(), specs, attestors)
		done <- err
	}()
	// The result sealer runs alone and fails within microseconds; the pause
	// only widens that margin.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	err = <-done
	if err == nil || !strings.Contains(err.Error(), "encrypt result") {
		t.Fatalf("Build error = %v, want the result sealing failure", err)
	}
	if sealed := ops.EncryptOps(); sealed >= n*uint64(len(attestors)) {
		t.Fatalf("attestors sealed %d envelopes after the result failed", sealed)
	}
}

func TestUnmarshalSealedRejectsDuplicateScalarField(t *testing.T) {
	// A crafted Sealed carrying the Response field twice would, under
	// last-write-wins decoding, let an attacker prepend a decoy response
	// while the digest pins still match the original bytes they copied. The
	// decoder must refuse the second occurrence outright.
	_, out, _ := buildFixture(t)
	good := out.sealed.Marshal()
	if _, err := UnmarshalSealed(good); err != nil {
		t.Fatalf("control decode failed: %v", err)
	}

	for _, field := range []int{1, 2, 3, 5} {
		crafted := append(append([]byte{}, good...), encodeDupField(field)...)
		if _, err := UnmarshalSealed(crafted); err == nil {
			t.Fatalf("duplicate scalar field %d accepted", field)
		}
	}

	// Repeated fields stay legal: a second attestor entry (field 4) is not
	// a duplicate scalar.
	crafted := append(append([]byte{}, good...), encodeRepeatedAttestor()...)
	decoded, err := UnmarshalSealed(crafted)
	if err != nil {
		t.Fatalf("legal repeated field refused: %v", err)
	}
	if len(decoded.Attestors) != len(out.sealed.Attestors)+1 {
		t.Fatalf("attestors = %d", len(decoded.Attestors))
	}
}

// encodeDupField encodes one extra occurrence of a Sealed scalar field.
func encodeDupField(field int) []byte {
	e := wire.NewEncoder(32)
	switch field {
	case 3: // UnixNano, varint
		e.Uint(field, 12345)
	default: // bytes fields
		e.BytesField(field, []byte("dup"))
	}
	return e.Bytes()
}

func encodeRepeatedAttestor() []byte {
	e := wire.NewEncoder(32)
	e.String(4, "extra-org/extra-peer")
	return e.Bytes()
}
