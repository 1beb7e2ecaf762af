// Package cryptoutil provides the cryptographic primitives used throughout
// the interoperability stack: ECDSA P-256 signatures for peer attestations,
// SHA-256 digests for ledger hashing, and an ECIES hybrid scheme (ephemeral
// ECDH + HKDF + AES-GCM) for end-to-end encryption of query results and
// proof metadata so that untrusted relays can neither read nor exfiltrate
// transferred data. The relay serving path uses one regime, sessioned ECIES:
// a SessionManager seals under one ephemeral key per TTL generation and one
// remembered agreement per requester, a Recipient opens remembering one
// agreement per session point, and both derive a fresh domain-separated
// AEAD key per query (one HKDF expand) so confidentiality stays per-query.
// It is the only encryption scheme. OpCounter tallies the sealing side's
// ECDH/sign/encrypt operations.
package cryptoutil

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"errors"
	"fmt"
)

var (
	// ErrInvalidSignature is returned when a signature fails verification.
	ErrInvalidSignature = errors.New("cryptoutil: invalid signature")
	// ErrInvalidKey is returned when key material cannot be parsed.
	ErrInvalidKey = errors.New("cryptoutil: invalid key material")
)

// GenerateKey creates a new ECDSA P-256 private key.
func GenerateKey() (*ecdsa.PrivateKey, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate ecdsa key: %w", err)
	}
	return key, nil
}

// SignDigest produces an ASN.1 DER encoded ECDSA signature over a message
// whose SHA-256 digest the caller holds: every signer in the system hashes
// what it signs itself, often without building the message.
func SignDigest(key *ecdsa.PrivateKey, digest []byte) ([]byte, error) {
	if key == nil {
		return nil, ErrInvalidKey
	}
	if len(digest) != DigestSize {
		return nil, fmt.Errorf("sign: digest is %d bytes, want %d", len(digest), DigestSize)
	}
	sig, err := ecdsa.SignASN1(rand.Reader, key, digest)
	if err != nil {
		return nil, fmt.Errorf("sign: %w", err)
	}
	return sig, nil
}

// VerifyDigest checks a signature made by SignDigest against the SHA-256
// digest of the signed message, returning ErrInvalidSignature when it does
// not match. A digest of any other length matches no signature.
func VerifyDigest(pub *ecdsa.PublicKey, digest, sig []byte) error {
	if pub == nil {
		return ErrInvalidKey
	}
	if len(digest) != DigestSize || !ecdsa.VerifyASN1(pub, digest, sig) {
		return ErrInvalidSignature
	}
	return nil
}

// MarshalPublicKey serializes an ECDSA public key to PKIX DER form, the
// format embedded in identity certificates and wire messages.
func MarshalPublicKey(pub *ecdsa.PublicKey) ([]byte, error) {
	der, err := x509.MarshalPKIXPublicKey(pub)
	if err != nil {
		return nil, fmt.Errorf("marshal public key: %w", err)
	}
	return der, nil
}

// ParsePublicKey parses a PKIX DER encoded ECDSA public key.
func ParsePublicKey(der []byte) (*ecdsa.PublicKey, error) {
	key, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidKey, err)
	}
	pub, ok := key.(*ecdsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("%w: not an ECDSA key", ErrInvalidKey)
	}
	return pub, nil
}

// MarshalPrivateKey serializes an ECDSA private key to PKCS#8 DER form.
func MarshalPrivateKey(key *ecdsa.PrivateKey) ([]byte, error) {
	der, err := x509.MarshalPKCS8PrivateKey(key)
	if err != nil {
		return nil, fmt.Errorf("marshal private key: %w", err)
	}
	return der, nil
}

// ParsePrivateKey parses a PKCS#8 DER encoded ECDSA private key.
func ParsePrivateKey(der []byte) (*ecdsa.PrivateKey, error) {
	key, err := x509.ParsePKCS8PrivateKey(der)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidKey, err)
	}
	priv, ok := key.(*ecdsa.PrivateKey)
	if !ok {
		return nil, fmt.Errorf("%w: not an ECDSA key", ErrInvalidKey)
	}
	return priv, nil
}
