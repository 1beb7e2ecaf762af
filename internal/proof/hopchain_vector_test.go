package proof

import (
	"bytes"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/msp"
	"repro/internal/wire"
)

// Known-answer vectors for the hop-pin chain: the anchor a chain links to,
// the payload each forwarding relay signs, and a committed two-pin chain.
// Every origin verifies these bytes on every forwarded response, so a
// change to any constant below is a format change, never the side effect
// of a refactor. Pin signatures are randomized, so the committed ones are
// pinned by verifying them, not by byte equality.
const (
	// vectorHub1CertPEM and vectorHub2CertPEM are self-signed certificates
	// for the P-256 keys with scalars 0x44 and 0x55 repeated.
	vectorHub1CertPEM = `-----BEGIN CERTIFICATE-----
MIIBdDCCARugAwIBAgIBATAKBggqhkjOPQQDAjA6MRIwEAYDVQQKEwlodWItMS1v
cmcxDjAMBgNVBAsTBXJlbGF5MRQwEgYDVQQDEwtodWItMS1yZWxheTAeFw0yMzEx
MTQyMjEzMjBaFw0zMzExMDcxODEzMjBaMDoxEjAQBgNVBAoTCWh1Yi0xLW9yZzEO
MAwGA1UECxMFcmVsYXkxFDASBgNVBAMTC2h1Yi0xLXJlbGF5MFkwEwYHKoZIzj0C
AQYIKoZIzj0DAQcDQgAEWzaJDay9fJqWu3Sh7iiz0tdbcuCaIO8lz45v2KnwNQ0O
FL7Y1GgqNNg1OL3/W5bommZm7A21dF0C+hIQBy33WqMSMBAwDgYDVR0PAQH/BAQD
AgeAMAoGCCqGSM49BAMCA0cAMEQCIAoWBZNqfWSU81+JEQ6EysUZDX1vmHwfRzNa
WqOd7vwmAiBE/C8ra8O3jE7bJm02EPwZSo6uM+W93cWv4oz1ZEmoyg==
-----END CERTIFICATE-----
`
	vectorHub2CertPEM = `-----BEGIN CERTIFICATE-----
MIIBdTCCARugAwIBAgIBATAKBggqhkjOPQQDAjA6MRIwEAYDVQQKEwlodWItMi1v
cmcxDjAMBgNVBAsTBXJlbGF5MRQwEgYDVQQDEwtodWItMi1yZWxheTAeFw0yMzEx
MTQyMjEzMjBaFw0zMzExMDcxODEzMjBaMDoxEjAQBgNVBAoTCWh1Yi0yLW9yZzEO
MAwGA1UECxMFcmVsYXkxFDASBgNVBAMTC2h1Yi0yLXJlbGF5MFkwEwYHKoZIzj0C
AQYIKoZIzj0DAQcDQgAEV+l39tt+M8P+es8oQu2YcAnK9W1FhoL8pEe309diqzTF
qzdwulc73/VBQGVkD/tbNG36hN7E201o5fWcxHHC7KMSMBAwDgYDVR0PAQH/BAQD
AgeAMAoGCCqGSM49BAMCA0gAMEUCIHwmQKUMmUdDWmKVaGmkltH3H6qhYxC5MoR9
gIIXrrTDAiEAkgjwndjhruPyH31S/kyxQEm64/MAVA9zsUTEQr3ca3I=
-----END CERTIFICATE-----
`
	vectorHub1ScalarHex = "4444444444444444444444444444444444444444444444444444444444444444"
	vectorHub2ScalarHex = "5555555555555555555555555555555555555555555555555555555555555555"

	// The anchor of vectorHopQuery/vectorHopResponse, and the payload a hop
	// "hub-net" with certificate bytes "cert-hub" signs directly above it.
	vectorHopAnchorHex     = "90fb5968acc1677ae96490c77d286a394f05939b2c6e9cf02d826f9ce7628434"
	vectorHopPinPayloadHex = "696e7465726f702d686f702d70696e000a2090fb5968acc1677ae96490c77d286a394f05939b2c6e9cf02d826f9ce762843412076875622d6e65741a08636572742d687562222022e3198f79dead6cd0cf5a161e072790fdd8603add6ac47c273299e757d1d744"

	// The chain hub-1 (next to the source) then hub-2 appended.
	vectorHopPin1Hex = "973e55371f80e9b001b7e5d5946a0f8cfb111a76797e81cf96696095cb21b9ad"
	vectorHopSig1Hex = "3044022027ab1a1bca2bdb2e5ed390828586afbf98b09ce5b395c89224b11f08ebffd48202201ebcc4c727e46e4463928be355ef2670e8dfb7b4c45d318660d2a681bec52e7a"
	vectorHopPin2Hex = "9937dc0db0aa3eeb2fc00c77e71aab01b1716e831343cdb84b9c3eb9765f90b2"
	vectorHopSig2Hex = "3046022100a2698a2e46641fc58df4cabfef9a4244d7d6214720c5ad32e954f55eaec91c27022100ef63d02f4e36ab079101086c1dc7128313731ed77a5a8c5b8df16cc3133ce24c"
)

// vectorHopQuery and vectorHopResponse are the fixed question and answer
// the vector chain is anchored to.
func vectorHopQuery(t *testing.T) *wire.Query {
	return &wire.Query{
		RequestID:         "po-1001-query-1",
		RequestingNetwork: "we-trade",
		TargetNetwork:     "tradelens",
		Ledger:            "default",
		Contract:          "TradeLensCC",
		Function:          "GetBillOfLading",
		Args:              [][]byte{[]byte("po-1001")},
		Nonce:             unhex(t, vectorNonceHex),
		PolicyExpr:        "AND('seller-org','carrier-org')",
	}
}

func vectorHopResponse(t *testing.T) *wire.QueryResponse {
	return &wire.QueryResponse{
		RequestID:         "po-1001-query-1",
		EncryptedResult:   []byte("enc-result"),
		PolicyDigest:      unhex(t, vectorPolicyDigestHex),
		SessionEphemeral:  []byte("eph"),
		SessionGeneration: 7,
		Attestations: []wire.Attestation{{
			PeerName: "seller-org-peer0", OrgID: "seller-org", CertPEM: []byte("cert-a"),
			EncryptedMetadata: []byte("enc-md"), Signature: []byte("sig-a"),
			SessionEphemeral: []byte("eph"), SessionGeneration: 7,
		}},
	}
}

// vectorHub is the forwarding identity with the given certificate and key.
func vectorHub(t *testing.T, certPEM, scalarHex string) *msp.Identity {
	t.Helper()
	cert, err := msp.ParseCertPEM([]byte(certPEM))
	if err != nil {
		t.Fatalf("vector certificate: %v", err)
	}
	key := vectorKey(t, scalarHex)
	if !key.PublicKey.Equal(cert.PublicKey) {
		t.Fatal("vector certificate does not carry the vector key")
	}
	return &msp.Identity{Name: cert.Subject.CommonName, Cert: cert, Key: key}
}

func TestKnownAnswerHopChain(t *testing.T) {
	q := vectorHopQuery(t)
	checkHex(t, "HopAnchor", HopAnchor(q, vectorHopResponse(t)), vectorHopAnchorHex)
	checkHex(t, "hopPinPayload",
		hopPinPayload(unhex(t, vectorHopAnchorHex), "hub-net", []byte("cert-hub"), unhex(t, vectorPolicyDigestHex)),
		vectorHopPinPayloadHex)

	// Appending with the fixed keys reproduces the committed pins: a pin is
	// the digest of its payload, so only the signatures are randomized.
	hubs := []struct {
		network, certPEM, scalar, pin, sig string
	}{
		{"hub-1", vectorHub1CertPEM, vectorHub1ScalarHex, vectorHopPin1Hex, vectorHopSig1Hex},
		{"hub-2", vectorHub2CertPEM, vectorHub2ScalarHex, vectorHopPin2Hex, vectorHopSig2Hex},
	}
	fresh := vectorHopResponse(t)
	for _, h := range hubs {
		if err := AppendHopPin(fresh, q, h.network, vectorHub(t, h.certPEM, h.scalar)); err != nil {
			t.Fatalf("AppendHopPin %s: %v", h.network, err)
		}
	}
	for i, h := range hubs {
		checkHex(t, h.network+" pin", fresh.HopPins[i].Pin, h.pin)
		if !bytes.Equal(fresh.HopPins[i].CertPEM, []byte(h.certPEM)) {
			t.Fatalf("%s pin carries a different certificate", h.network)
		}
	}
	if _, err := VerifyHopChainVia(q, fresh, "hub-2"); err != nil {
		t.Fatalf("freshly signed chain: %v", err)
	}

	// The committed chain, rebuilt from the constants alone, verifies.
	committed := vectorHopResponse(t)
	for _, h := range hubs {
		committed.HopPins = append(committed.HopPins, wire.HopPin{
			Network: h.network, CertPEM: []byte(h.certPEM), Pin: unhex(t, h.pin), Signature: unhex(t, h.sig),
		})
	}
	hops, err := VerifyHopChainVia(q, committed, "hub-2")
	if err != nil {
		t.Fatalf("committed chain: %v", err)
	}
	if len(hops) != 2 || hops[0].Network != "hub-1" || hops[1].Network != "hub-2" {
		t.Fatalf("committed chain path = %+v", hops)
	}
	// Each committed signature covers exactly the payload its pin digests.
	prev := unhex(t, vectorHopAnchorHex)
	for i, h := range hubs {
		payload := hopPinPayload(prev, h.network, []byte(h.certPEM), PolicyDigestOf(q))
		checkHex(t, h.network+" pin digest", cryptoutil.Digest(payload), h.pin)
		if err := cryptoutil.VerifyDigest(&vectorKey(t, h.scalar).PublicKey, cryptoutil.Digest(payload), committed.HopPins[i].Signature); err != nil {
			t.Fatalf("%s committed signature: %v", h.network, err)
		}
		prev = unhex(t, h.pin)
	}
}
