package proof

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/endorsement"
	"repro/internal/msp"
	"repro/internal/wire"
)

// setup creates the source-side fixture: two organizations with one
// attesting peer each, plus the verifier a destination network would build
// from their recorded root certificates.
func setup(t *testing.T) (*msp.CA, *msp.CA, *msp.Identity, *msp.Identity, *msp.Verifier) {
	t.Helper()
	sellerCA, err := msp.NewCA("seller-org")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	carrierCA, err := msp.NewCA("carrier-org")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	sellerPeer, err := sellerCA.Issue("seller-org-peer0", msp.RolePeer)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	carrierPeer, err := carrierCA.Issue("carrier-org-peer0", msp.RolePeer)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	verifier, err := msp.NewVerifier(map[string][]byte{
		"seller-org":  sellerCA.RootCertPEM(),
		"carrier-org": carrierCA.RootCertPEM(),
	})
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	return sellerCA, carrierCA, sellerPeer, carrierPeer, verifier
}

func sampleQuery(t *testing.T) *wire.Query {
	t.Helper()
	nonce, err := cryptoutil.NewNonce()
	if err != nil {
		t.Fatalf("NewNonce: %v", err)
	}
	return &wire.Query{
		RequestID:         "req-1",
		RequestingNetwork: "we-trade",
		TargetNetwork:     "tradelens",
		Ledger:            "default",
		Contract:          "TradeLensCC",
		Function:          "GetBillOfLading",
		Args:              [][]byte{[]byte("po-1001")},
		PolicyExpr:        "AND('seller-org','carrier-org')",
		Nonce:             nonce,
	}
}

// testSpec returns the pinned spec answering q with result for a fresh
// requester key, labelled by that key so no two requesters share a session
// secret.
func testSpec(t testing.TB, q *wire.Query, result []byte) (Spec, *ecdsa.PrivateKey) {
	t.Helper()
	key, err := cryptoutil.GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	return Spec{
		NetworkID:      q.TargetNetwork,
		QueryDigest:    QueryDigestOf(q),
		PolicyDigest:   PolicyDigest(q.PolicyExpr),
		Result:         result,
		Nonce:          q.Nonce,
		ClientPub:      &key.PublicKey,
		RequesterLabel: key.X.String(),
		Now:            time.Now(),
	}, key
}

// buildOne builds spec's proof alone with a fresh builder.
func buildOne(t testing.TB, spec Spec, attestors ...*msp.Identity) *wire.QueryResponse {
	t.Helper()
	resps, err := NewBuilder(0, nil).Build(context.Background(), []Spec{spec}, attestors)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return resps[0]
}

func TestEndToEndProofFlow(t *testing.T) {
	_, _, sellerPeer, carrierPeer, verifier := setup(t)
	q := sampleQuery(t)
	result := []byte(`{"blId":"bl-77","po":"po-1001"}`)
	spec, clientKey := testSpec(t, q, result)
	resp := buildOne(t, spec, sellerPeer, carrierPeer)

	bundle, err := OpenResponse(cryptoutil.NewRecipient(clientKey), q, resp)
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}
	if !bytes.Equal(bundle.Result, result) {
		t.Fatalf("bundle result = %q", bundle.Result)
	}
	if len(bundle.Elements) != 2 {
		t.Fatalf("elements = %d", len(bundle.Elements))
	}

	vp := endorsement.MustParse(q.PolicyExpr)
	if err := Verify(bundle, verifier, vp, spec.QueryDigest, spec.PolicyDigest); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func buildBundle(t *testing.T, q *wire.Query, result []byte, attestors ...*msp.Identity) *Bundle {
	t.Helper()
	spec, clientKey := testSpec(t, q, result)
	bundle, err := OpenResponse(cryptoutil.NewRecipient(clientKey), q, buildOne(t, spec, attestors...))
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}
	return bundle
}

func TestVerifyRejectsTamperedResult(t *testing.T) {
	_, _, sellerPeer, carrierPeer, verifier := setup(t)
	q := sampleQuery(t)
	bundle := buildBundle(t, q, []byte("genuine B/L"), sellerPeer, carrierPeer)
	vp := endorsement.MustParse(q.PolicyExpr)
	qd := QueryDigestOf(q)

	bundle.Result = []byte("forged B/L")
	if err := Verify(bundle, verifier, vp, qd, PolicyDigest(q.PolicyExpr)); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("tampered result: %v", err)
	}
}

func TestVerifyRejectsForgedSignature(t *testing.T) {
	_, _, sellerPeer, carrierPeer, verifier := setup(t)
	q := sampleQuery(t)
	bundle := buildBundle(t, q, []byte("doc"), sellerPeer, carrierPeer)
	vp := endorsement.MustParse(q.PolicyExpr)
	qd := QueryDigestOf(q)

	bundle.Elements[0].Signature[8] ^= 0xFF
	if err := Verify(bundle, verifier, vp, qd, PolicyDigest(q.PolicyExpr)); !errors.Is(err, ErrBadAttestation) {
		t.Fatalf("forged signature: %v", err)
	}
}

func TestVerifyRejectsUnknownCA(t *testing.T) {
	_, _, sellerPeer, _, verifier := setup(t)
	q := sampleQuery(t)

	// A rogue CA impersonating the carrier org.
	rogueCA, _ := msp.NewCA("carrier-org")
	roguePeer, _ := rogueCA.Issue("carrier-org-peer0", msp.RolePeer)

	bundle := buildBundle(t, q, []byte("doc"), sellerPeer, roguePeer)
	vp := endorsement.MustParse(q.PolicyExpr)
	if err := Verify(bundle, verifier, vp, QueryDigestOf(q), PolicyDigest(q.PolicyExpr)); !errors.Is(err, ErrBadAttestation) {
		t.Fatalf("rogue CA: %v", err)
	}
}

func TestVerifyRejectsNonPeerAttestor(t *testing.T) {
	sellerCA, _, sellerPeer, _, verifier := setup(t)
	q := sampleQuery(t)
	clientID, _ := sellerCA.Issue("some-client", msp.RoleClient)
	bundle := buildBundle(t, q, []byte("doc"), sellerPeer, clientID)
	vp := endorsement.MustParse("'seller-org'")
	if err := Verify(bundle, verifier, vp, QueryDigestOf(q), PolicyDigest(q.PolicyExpr)); !errors.Is(err, ErrNotPeer) {
		t.Fatalf("client attestor: %v", err)
	}
}

func TestVerifyRejectsUnsatisfiedPolicy(t *testing.T) {
	_, _, sellerPeer, _, verifier := setup(t)
	q := sampleQuery(t)
	// Only the seller org attests, but the policy wants both orgs.
	bundle := buildBundle(t, q, []byte("doc"), sellerPeer)
	vp := endorsement.MustParse("AND('seller-org','carrier-org')")
	if err := Verify(bundle, verifier, vp, QueryDigestOf(q), PolicyDigest(q.PolicyExpr)); !errors.Is(err, ErrPolicyUnsatisfied) {
		t.Fatalf("unsatisfied policy: %v", err)
	}
}

func TestVerifyRejectsWrongQueryDigest(t *testing.T) {
	_, _, sellerPeer, carrierPeer, verifier := setup(t)
	q := sampleQuery(t)
	bundle := buildBundle(t, q, []byte("doc"), sellerPeer, carrierPeer)
	vp := endorsement.MustParse(q.PolicyExpr)

	otherDigest := QueryDigest("tradelens", "default", "TradeLensCC", "GetBillOfLading",
		[][]byte{[]byte("po-9999")}, q.Nonce)
	if err := Verify(bundle, verifier, vp, otherDigest, PolicyDigest(q.PolicyExpr)); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("wrong query digest: %v", err)
	}
}

func TestVerifyRejectsWrongNetwork(t *testing.T) {
	_, _, sellerPeer, carrierPeer, verifier := setup(t)
	q := sampleQuery(t)
	bundle := buildBundle(t, q, []byte("doc"), sellerPeer, carrierPeer)
	vp := endorsement.MustParse(q.PolicyExpr)
	bundle.SourceNetwork = "some-other-net"
	if err := Verify(bundle, verifier, vp, QueryDigestOf(q), PolicyDigest(q.PolicyExpr)); !errors.Is(err, ErrWrongNetwork) {
		t.Fatalf("wrong network: %v", err)
	}
}

func TestVerifyRejectsNonceSwap(t *testing.T) {
	_, _, sellerPeer, carrierPeer, verifier := setup(t)
	q := sampleQuery(t)
	bundle := buildBundle(t, q, []byte("doc"), sellerPeer, carrierPeer)
	vp := endorsement.MustParse(q.PolicyExpr)

	// An attacker replays the bundle under a different nonce: the expected
	// query digest changes with the nonce, and the metadata nonce check
	// fires too.
	newNonce, _ := cryptoutil.NewNonce()
	bundle.Nonce = newNonce
	err := Verify(bundle, verifier, vp, QueryDigestOf(q), PolicyDigest(q.PolicyExpr))
	if err == nil {
		t.Fatal("nonce swap accepted")
	}
}

func TestVerifyNilPolicy(t *testing.T) {
	_, _, sellerPeer, _, verifier := setup(t)
	q := sampleQuery(t)
	bundle := buildBundle(t, q, []byte("doc"), sellerPeer)
	if err := Verify(bundle, verifier, nil, QueryDigestOf(q), PolicyDigest(q.PolicyExpr)); !errors.Is(err, ErrPolicyUnsatisfied) {
		t.Fatalf("nil policy: %v", err)
	}
}

func TestOpenResponseRejectsRemoteError(t *testing.T) {
	clientKey, _ := cryptoutil.GenerateKey()
	q := sampleQuery(t)
	resp := &wire.QueryResponse{RequestID: q.RequestID, Error: "access denied"}
	if _, err := OpenResponse(cryptoutil.NewRecipient(clientKey), q, resp); err == nil {
		t.Fatal("error response accepted")
	}
}

func TestOpenResponseWrongKey(t *testing.T) {
	_, _, sellerPeer, _, _ := setup(t)
	wrongKey, _ := cryptoutil.GenerateKey()
	q := sampleQuery(t)
	spec, _ := testSpec(t, q, []byte("doc"))
	if _, err := OpenResponse(cryptoutil.NewRecipient(wrongKey), q, buildOne(t, spec, sellerPeer)); err == nil {
		t.Fatal("wrong key opened the response")
	}
}

func TestOpenResponseDetectsRelayResultSwap(t *testing.T) {
	// A malicious relay swaps the encrypted result for another ciphertext
	// encrypted to the same client; the metadata digest exposes it.
	_, _, sellerPeer, _, _ := setup(t)
	q := sampleQuery(t)
	spec, clientKey := testSpec(t, q, []byte("genuine"))
	resp := buildOne(t, spec, sellerPeer)
	spec.Result = []byte("swapped")
	swapped := buildOne(t, spec, sellerPeer)
	resp.EncryptedResult, resp.SessionEphemeral, resp.SessionGeneration =
		swapped.EncryptedResult, swapped.SessionEphemeral, swapped.SessionGeneration
	if _, err := OpenResponse(cryptoutil.NewRecipient(clientKey), q, resp); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("result swap: %v", err)
	}
}

func TestOpenResponseRefusesUnpinnedResponse(t *testing.T) {
	_, _, sellerPeer, _, _ := setup(t)
	q := sampleQuery(t)
	spec, clientKey := testSpec(t, q, []byte("doc"))
	// The response-level pin stripped in transit: refused, not skipped.
	stripped := buildOne(t, spec, sellerPeer)
	stripped.PolicyDigest = nil
	if _, err := OpenResponse(cryptoutil.NewRecipient(clientKey), q, stripped); !errors.Is(err, ErrPolicyDigestMismatch) {
		t.Fatalf("unpinned response accepted: %v", err)
	}
	// Attestations signed without a pin behind a pinned response: refused.
	spec.PolicyDigest = nil
	unpinned := buildOne(t, spec, sellerPeer)
	unpinned.PolicyDigest = PolicyDigest(q.PolicyExpr)
	if _, err := OpenResponse(cryptoutil.NewRecipient(clientKey), q, unpinned); !errors.Is(err, ErrPolicyDigestMismatch) {
		t.Fatalf("unpinned metadata accepted: %v", err)
	}
}

func TestVerifyRefusesUnpinnedBundle(t *testing.T) {
	_, _, sellerPeer, carrierPeer, verifier := setup(t)
	q := sampleQuery(t)
	vp := endorsement.MustParse(q.PolicyExpr)
	pin := PolicyDigest(q.PolicyExpr)
	bundle := buildBundle(t, q, []byte("doc"), sellerPeer, carrierPeer)
	if err := Verify(bundle, verifier, vp, QueryDigestOf(q), nil); !errors.Is(err, ErrPolicyDigestMismatch) {
		t.Fatalf("verification without an expected pin accepted: %v", err)
	}
	bundle.PolicyDigest = nil
	if err := Verify(bundle, verifier, vp, QueryDigestOf(q), pin); !errors.Is(err, ErrPolicyDigestMismatch) {
		t.Fatalf("unpinned bundle accepted: %v", err)
	}
}

func TestBundleMarshalRoundTrip(t *testing.T) {
	_, _, sellerPeer, carrierPeer, _ := setup(t)
	q := sampleQuery(t)
	bundle := buildBundle(t, q, []byte("doc"), sellerPeer, carrierPeer)
	got, err := UnmarshalBundle(bundle.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalBundle: %v", err)
	}
	if got.SourceNetwork != bundle.SourceNetwork || !bytes.Equal(got.Result, bundle.Result) ||
		!bytes.Equal(got.Nonce, bundle.Nonce) || len(got.Elements) != len(bundle.Elements) {
		t.Fatalf("round-trip: %+v", got)
	}
	for i := range got.Elements {
		if !bytes.Equal(got.Elements[i].Metadata, bundle.Elements[i].Metadata) {
			t.Fatalf("element %d metadata", i)
		}
	}
}

func TestBundleUnmarshalGarbage(t *testing.T) {
	if _, err := UnmarshalBundle(bytes.Repeat([]byte{0xFE}, 10)); err == nil {
		t.Fatal("garbage bundle accepted")
	}
}

func TestQueryDigestSensitivity(t *testing.T) {
	base := QueryDigest("net", "ledger", "cc", "fn", [][]byte{[]byte("a")}, []byte("n1"))
	variants := []struct {
		name string
		d    []byte
	}{
		{"network", QueryDigest("net2", "ledger", "cc", "fn", [][]byte{[]byte("a")}, []byte("n1"))},
		{"ledger", QueryDigest("net", "ledger2", "cc", "fn", [][]byte{[]byte("a")}, []byte("n1"))},
		{"contract", QueryDigest("net", "ledger", "cc2", "fn", [][]byte{[]byte("a")}, []byte("n1"))},
		{"function", QueryDigest("net", "ledger", "cc", "fn2", [][]byte{[]byte("a")}, []byte("n1"))},
		{"args", QueryDigest("net", "ledger", "cc", "fn", [][]byte{[]byte("b")}, []byte("n1"))},
		{"nonce", QueryDigest("net", "ledger", "cc", "fn", [][]byte{[]byte("a")}, []byte("n2"))},
	}
	for _, v := range variants {
		if bytes.Equal(base, v.d) {
			t.Fatalf("digest insensitive to %s", v.name)
		}
	}
	again := QueryDigest("net", "ledger", "cc", "fn", [][]byte{[]byte("a")}, []byte("n1"))
	if !bytes.Equal(base, again) {
		t.Fatal("digest not deterministic")
	}
}

// queryDigestReference is QueryDigest as it was before it streamed: the
// fields encoded into one buffer, then hashed.
func queryDigestReference(targetNetwork, ledgerName, contract, function string, args [][]byte, nonce []byte) []byte {
	e := wire.NewEncoder(128)
	e.String(1, targetNetwork)
	e.String(2, ledgerName)
	e.String(3, contract)
	e.String(4, function)
	for _, a := range args {
		e.Message(5, a)
	}
	e.BytesField(6, nonce)
	return cryptoutil.Digest(e.Bytes())
}

// TestQueryDigestMatchesEncoding holds the streamed QueryDigest to SHA-256
// of the encoded fields over generated queries: 0–8 arguments, some of
// them empty (each still framed), empty and nil nonces, empty names, and
// fields past the 256-byte scratch the hashing walk stages them in. A
// warm digest allocates only the slice it returns.
func TestQueryDigestMatchesEncoding(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	gen := func() []byte {
		b := make([]byte, []int{0, 1, 7, 127, 128, 300}[r.Intn(6)])
		r.Read(b)
		return b
	}
	for i := 0; i < 300; i++ {
		args := make([][]byte, i%9)
		for j := range args {
			args[j] = gen()
		}
		nonce := gen()
		if i%7 == 0 {
			nonce = nil
		}
		net, ledger, cc, fn := string(gen()), string(gen()), string(gen()), string(gen())
		got := QueryDigest(net, ledger, cc, fn, args, nonce)
		if want := queryDigestReference(net, ledger, cc, fn, args, nonce); !bytes.Equal(got, want) {
			t.Fatalf("query %d (%d args, nonce %d B): digest %x, want %x", i, len(args), len(nonce), got, want)
		}
	}
	if raceEnabled {
		return // the pooled digester: the race detector drops pooled items
	}
	args := [][]byte{[]byte("po-1001"), nil, []byte("v2")}
	if got := testing.AllocsPerRun(100, func() {
		sinkDigest = QueryDigest("tradelens", "default", "trade", "GetBillOfLading", args, []byte("nonce"))
	}); got != 1 {
		t.Fatalf("QueryDigest: %v allocations, want 1", got)
	}
	q := &wire.Query{TargetNetwork: "tradelens", Ledger: "default", Contract: "trade", Function: "GetBillOfLading", Args: args, Nonce: []byte("nonce")}
	if sum := QuerySumOf(q); !bytes.Equal(sum[:], QueryDigestOf(q)) {
		t.Fatalf("QuerySumOf = %x, want QueryDigestOf's %x", sum, QueryDigestOf(q))
	}
	if got := testing.AllocsPerRun(100, func() { sum := QuerySumOf(q); sinkByte = sum[0] }); got != 0 {
		t.Fatalf("QuerySumOf: %v allocations, want 0", got)
	}
}

// TestPinnedPolicyDigest: the pin check hashes the expression as
// PolicyDigest does and accepts exactly its digest, without an allocation
// for an expression of any length; PolicyDigest allocates only the digest
// it returns.
func TestPinnedPolicyDigest(t *testing.T) {
	expr := strings.Repeat("OR('org-a','org-b') ", 10)
	q := &wire.Query{PolicyExpr: expr}
	if got, err := PinnedPolicyDigest(q); err != nil || !bytes.Equal(got, PolicyDigest(expr)) {
		t.Fatalf("unpinned: %x, %v; want PolicyDigest %x", got, err, PolicyDigest(expr))
	}
	q.PolicyDigest = PolicyDigest(expr)
	if got, err := PinnedPolicyDigest(q); err != nil || &got[0] != &q.PolicyDigest[0] {
		t.Fatalf("pinned: %x, %v; want the query's own pin", got, err)
	}
	if _, err := PinnedPolicyDigest(&wire.Query{PolicyExpr: expr + " ", PolicyDigest: q.PolicyDigest}); !errors.Is(err, ErrPolicyPinMismatch) {
		t.Fatalf("a pin of another expression: %v, want ErrPolicyPinMismatch", err)
	}
	if raceEnabled {
		return
	}
	if got := testing.AllocsPerRun(100, func() { sinkDigest, _ = PinnedPolicyDigest(q) }); got != 0 {
		t.Fatalf("PinnedPolicyDigest of a pinned %d-byte expression: %v allocations, want 0", len(expr), got)
	}
	if got := testing.AllocsPerRun(100, func() { sinkDigest = PolicyDigest(expr) }); got != 1 {
		t.Fatalf("PolicyDigest of a %d-byte expression: %v allocations, want 1", len(expr), got)
	}
}

// Sinks keep results escaping, as they do at every real call site.
var (
	sinkDigest []byte
	sinkByte   byte
)

func BenchmarkBuildOneAttestor(b *testing.B) {
	ca, _ := msp.NewCA("org")
	attestor, _ := ca.Issue("peer0", msp.RolePeer)
	q := &wire.Query{TargetNetwork: "net", Ledger: "l", Contract: "cc", Function: "fn", Nonce: []byte("nonce")}
	spec, _ := testSpec(b, q, make([]byte, 1024))
	builder := NewBuilder(0, nil)
	specs := []Spec{spec}
	attestors := []*msp.Identity{attestor}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := builder.Build(context.Background(), specs, attestors); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyTwoAttestors verifies one bundle over and over, so after
// the first iteration its signatures are remembered; the root E3 benchmark's
// "fresh" rows pay an ECDSA verify per attestor.
func BenchmarkVerifyTwoAttestors(b *testing.B) {
	sellerCA, _ := msp.NewCA("seller-org")
	carrierCA, _ := msp.NewCA("carrier-org")
	sellerPeer, _ := sellerCA.Issue("sp", msp.RolePeer)
	carrierPeer, _ := carrierCA.Issue("cp", msp.RolePeer)
	verifier, _ := msp.NewVerifier(map[string][]byte{
		"seller-org":  sellerCA.RootCertPEM(),
		"carrier-org": carrierCA.RootCertPEM(),
	})
	nonce, _ := cryptoutil.NewNonce()
	q := &wire.Query{TargetNetwork: "tl", Ledger: "l", Contract: "cc", Function: "fn", Nonce: nonce,
		PolicyExpr: "AND('seller-org','carrier-org')"}
	spec, clientKey := testSpec(b, q, make([]byte, 1024))
	bundle, err := OpenResponse(cryptoutil.NewRecipient(clientKey), q, buildOne(b, spec, sellerPeer, carrierPeer))
	if err != nil {
		b.Fatal(err)
	}
	vp := endorsement.MustParse("AND('seller-org','carrier-org')")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(bundle, verifier, vp, spec.QueryDigest, spec.PolicyDigest); err != nil {
			b.Fatal(err)
		}
	}
}
