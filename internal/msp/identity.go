package msp

import (
	"crypto/ecdsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"encoding/pem"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cryptoutil"
	"repro/internal/memo"
)

// Identity is a key pair plus the certificate binding it to an organization
// member. Peers hold identities to sign attestations; clients hold them to
// authenticate cross-network queries. An Identity is shared by pointer and
// must not be copied after first use.
type Identity struct {
	Name  string
	OrgID string
	Role  Role
	Cert  *x509.Certificate
	Key   *ecdsa.PrivateKey

	pemOnce sync.Once
	certPEM []byte
}

// CertPEM returns the PEM encoding of the identity's certificate, the form
// carried in wire messages so remote networks can authenticate the holder.
// It is encoded once; every call returns the same bytes, which callers must
// treat as read-only.
func (id *Identity) CertPEM() []byte {
	id.pemOnce.Do(func() { id.certPEM = encodeCertPEM(id.Cert) })
	return id.certPEM
}

func encodeCertPEM(cert *x509.Certificate) []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: cert.Raw})
}

const (
	// parsedCertsMax bounds the parse memo. Requester and attestor
	// certificates arrive from other networks, so the table must not grow
	// with the number of distinct certificates ever presented.
	parsedCertsMax = 1024
	// memoPEMMax is the longest input the parse memo keeps: the key is the
	// whole input, and pem.Decode ignores trailing bytes a hostile sender
	// could pad a certificate with.
	memoPEMMax = 16 << 10
	// verifiedSigsMax bounds the signature memo: attestation and hop-pin
	// signatures arrive from other networks too.
	verifiedSigsMax = 4096
)

var (
	parsedCerts  = memo.Table[[]byte, *x509.Certificate]{Max: parsedCertsMax}
	verifiedSigs = memo.Table[[]byte, struct{}]{Max: verifiedSigsMax}
)

// ParseCertPEM decodes a PEM certificate as produced by CertPEM or
// CA.RootCertPEM. Each distinct input is parsed once per process: the
// result is memoised by the exact input bytes and shared between callers,
// who must not modify the returned certificate. Failures are not
// remembered.
func ParseCertPEM(pemBytes []byte) (*x509.Certificate, error) {
	if cert, ok := parsedCerts.Get(pemBytes); ok {
		return cert, nil
	}
	cert, err := parseCertPEM(pemBytes)
	if err != nil {
		return nil, err
	}
	if len(pemBytes) <= memoPEMMax {
		parsedCerts.Put(string(pemBytes), cert)
	}
	return cert, nil
}

func parseCertPEM(pemBytes []byte) (*x509.Certificate, error) {
	block, _ := pem.Decode(pemBytes)
	if block == nil || block.Type != "CERTIFICATE" {
		return nil, errors.New("msp: no CERTIFICATE block in PEM input")
	}
	cert, err := x509.ParseCertificate(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("msp: parse certificate: %w", err)
	}
	return cert, nil
}

// VerifySignature checks sig, an ASN.1 ECDSA signature over a message whose
// SHA-256 digest is digest, against the public key cert certifies. It does
// not authenticate cert: callers run Verifier.Verify first where the signer
// must be a recorded member.
//
// Each signature that verifies is remembered per process, so a
// byte-identical (certificate, digest, signature) triple costs one ECDSA
// verification however often it is presented. The key is SHA-256 over the
// length-framed certificate DER, digest and signature. It binds the whole
// certificate because ECDSA admits key substitution: for a given digest and
// signature anyone can construct a key they verify under, so a verdict
// keyed on those two alone would accept the signature under a crafted
// certificate. Refusals are never remembered.
func VerifySignature(cert *x509.Certificate, digest, sig []byte) error {
	key := signatureKey(cert.Raw, digest, sig)
	if _, ok := verifiedSigs.Get(key[:]); ok {
		return nil
	}
	pub, _ := cert.PublicKey.(*ecdsa.PublicKey) // nil, refused by VerifyDigest, for a non-ECDSA key
	if err := cryptoutil.VerifyDigest(pub, digest, sig); err != nil {
		return err
	}
	verifiedSigs.Put(string(key[:]), struct{}{})
	return nil
}

// signatureKey is the signature memo's key: SHA-256 over each part
// prefixed by its length, so no two distinct triples frame to the same
// bytes.
func signatureKey(certDER, digest, sig []byte) (key [sha256.Size]byte) {
	h := sha256.New()
	var n [8]byte
	for _, part := range [...][]byte{certDER, digest, sig} {
		binary.BigEndian.PutUint64(n[:], uint64(len(part)))
		h.Write(n[:])
		h.Write(part)
	}
	h.Sum(key[:0])
	return key
}

// PublicKeyFromPEM returns the ECDSA public key a PEM certificate
// certifies, without authenticating the certificate. Relays and the ECC use
// it to encrypt a response to the requester named in a query.
func PublicKeyFromPEM(pemBytes []byte) (*ecdsa.PublicKey, error) {
	cert, err := ParseCertPEM(pemBytes)
	if err != nil {
		return nil, err
	}
	pub, ok := cert.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		return nil, errors.New("msp: certificate key is not ECDSA")
	}
	return pub, nil
}

// CertInfo is the identity information extracted from a verified
// certificate.
type CertInfo struct {
	Name  string
	OrgID string
	Role  Role
}
