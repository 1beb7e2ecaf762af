package relay

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/x509"
	"encoding/hex"
	"encoding/pem"
	"testing"

	"repro/internal/wire"
)

// Known-answer vector for InteropTxID: the platform transaction ID an
// interop invoke commits under. The committer's TxID-level duplicate check
// and every relay's ledger replay look commits up by it, so a change to
// this value is a format change, never a refactor side effect.
const (
	// vectorRequesterCertPEM is a self-signed requester certificate for
	// the P-256 key with scalar 0x11 repeated.
	vectorRequesterCertPEM = `-----BEGIN CERTIFICATE-----
MIIBkDCCATWgAwIBAgIBATAKBggqhkjOPQQDAjBHMRgwFgYDVQQKEw9zZWxsZXIt
YmFuay1vcmcxDzANBgNVBAsTBmNsaWVudDEaMBgGA1UEAxMRc3d0LXNlbGxlci1j
bGllbnQwHhcNMjMxMTE0MjIxMzIwWhcNMzMxMTExMjIxMzIwWjBHMRgwFgYDVQQK
Ew9zZWxsZXItYmFuay1vcmcxDzANBgNVBAsTBmNsaWVudDEaMBgGA1UEAxMRc3d0
LXNlbGxlci1jbGllbnQwWTATBgcqhkjOPQIBBggqhkjOPQMBBwNCAAQCF+YX8LZE
OSgnj5aZnmmiOk8sFSvfbWzfZuW4AoLU7RlKfevLl3EtLdo8qFqodlpW9F/HWFmW
UvKJfGUwbleUoxIwEDAOBgNVHQ8BAf8EBAMCB4AwCgYIKoZIzj0EAwIDSQAwRgIh
AIwH1vGIGt4mq4/COWROS1e6SaVSx4XckYUqOdNoPS8zAiEA+AvxHV24iTvIzW9M
7IetRnWHBIcqPL5W0tNKV8Hz1gM=
-----END CERTIFICATE-----
`
	vectorRequesterScalarHex = "1111111111111111111111111111111111111111111111111111111111111111"
	vectorInteropTxID        = "interop-tx-e630e9e023294b761e08663e31d11276"
)

func TestInteropTxIDKnownAnswer(t *testing.T) {
	// The certificate is the one the fixed key signed for itself.
	block, _ := pem.Decode([]byte(vectorRequesterCertPEM))
	if block == nil {
		t.Fatal("vector certificate is not PEM")
	}
	cert, err := x509.ParseCertificate(block.Bytes)
	if err != nil {
		t.Fatalf("parse vector certificate: %v", err)
	}
	if err := cert.CheckSignature(cert.SignatureAlgorithm, cert.RawTBSCertificate, cert.Signature); err != nil {
		t.Fatalf("vector certificate signature: %v", err)
	}
	scalar, err := hex.DecodeString(vectorRequesterScalarHex)
	if err != nil {
		t.Fatal(err)
	}
	key, err := ecdh.P256().NewPrivateKey(scalar)
	if err != nil {
		t.Fatalf("vector scalar: %v", err)
	}
	certPub, ok := cert.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		t.Fatalf("vector certificate key is %T, want ECDSA", cert.PublicKey)
	}
	certKey, err := certPub.ECDH()
	if err != nil || !certKey.Equal(key.PublicKey()) {
		t.Fatalf("vector certificate does not carry the vector key (%v)", err)
	}

	q := &wire.Query{
		RequestID:         "po-1001-invoke-1",
		RequestingNetwork: "we-trade",
		TargetNetwork:     "tradelens",
		RequesterCertPEM:  []byte(vectorRequesterCertPEM),
	}
	if got := InteropTxID(q); got != vectorInteropTxID {
		t.Fatalf("InteropTxID = %q, want %q", got, vectorInteropTxID)
	}
	// Fields outside the interop key do not move the ID.
	q.TargetNetwork, q.Nonce = "elsewhere", []byte("nonce")
	if got := InteropTxID(q); got != vectorInteropTxID {
		t.Fatalf("InteropTxID moved with a non-key field: %q", got)
	}
	q.RequestID = ""
	if got := InteropTxID(q); got != "" {
		t.Fatalf("InteropTxID without a request ID = %q, want empty", got)
	}
}
