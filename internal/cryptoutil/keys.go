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
	"crypto/sha256"
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

// Sign produces an ASN.1 DER encoded ECDSA signature over the SHA-256 digest
// of msg.
func Sign(key *ecdsa.PrivateKey, msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	return SignDigest(key, digest[:])
}

// SignDigest produces the signature Sign would over a message whose SHA-256
// digest the caller already holds, for callers that hash a message without
// building it.
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

// Verify checks an ASN.1 DER encoded ECDSA signature over the SHA-256 digest
// of msg. It returns ErrInvalidSignature when the signature does not match.
func Verify(pub *ecdsa.PublicKey, msg, sig []byte) error {
	digest := sha256.Sum256(msg)
	return VerifyDigest(pub, digest[:], sig)
}

// VerifyDigest checks a signature made by Sign or SignDigest against the
// SHA-256 digest of the signed message. A digest of any other length
// matches no signature.
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
