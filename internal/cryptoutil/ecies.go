package cryptoutil

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
)

// ErrDecrypt is returned when a ciphertext cannot be decrypted, either
// because it is malformed or because the wrong private key was used.
var ErrDecrypt = errors.New("cryptoutil: decryption failed")

// eciesInfo domain-separates the derived encryption keys from any other use
// of the shared secret.
var eciesInfo = []byte("interop-ecies-v1")

// Encrypt performs ECIES hybrid encryption of plaintext to the holder of the
// given ECDSA P-256 public key: an ephemeral ECDH key agreement produces a
// shared secret, HKDF-SHA256 derives an AES-256 key, and AES-GCM provides
// authenticated encryption. The output layout is:
//
//	uncompressed ephemeral public point (65 bytes) || GCM nonce || ciphertext
//
// This is the mechanism peers use to make results and proof metadata
// readable only by the requesting client (§4.3): a malicious relay carrying
// the message learns nothing and cannot strip a verifiable proof out of it.
func Encrypt(pub *ecdsa.PublicKey, plaintext []byte) ([]byte, error) {
	if pub == nil {
		return nil, ErrInvalidKey
	}
	recipient, err := pub.ECDH()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidKey, err)
	}
	ephemeral, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate ephemeral key: %w", err)
	}
	secret, err := ephemeral.ECDH(recipient)
	if err != nil {
		return nil, fmt.Errorf("ecdh agreement: %w", err)
	}
	ephemeralPub := ephemeral.PublicKey().Bytes()
	aead, err := newAEAD(secret, ephemeralPub)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, aead.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("generate gcm nonce: %w", err)
	}
	out := make([]byte, 0, len(ephemeralPub)+len(nonce)+len(plaintext)+aead.Overhead())
	out = append(out, ephemeralPub...)
	out = append(out, nonce...)
	out = aead.Seal(out, nonce, plaintext, nil)
	return out, nil
}

// Decrypt reverses Encrypt using the recipient's private key.
func Decrypt(priv *ecdsa.PrivateKey, ciphertext []byte) ([]byte, error) {
	if priv == nil {
		return nil, ErrInvalidKey
	}
	recipient, err := priv.ECDH()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidKey, err)
	}
	const pointLen = 65 // uncompressed P-256 point
	if len(ciphertext) < pointLen {
		return nil, ErrDecrypt
	}
	ephemeralPub, err := ecdh.P256().NewPublicKey(ciphertext[:pointLen])
	if err != nil {
		return nil, fmt.Errorf("%w: bad ephemeral point", ErrDecrypt)
	}
	secret, err := recipient.ECDH(ephemeralPub)
	if err != nil {
		return nil, fmt.Errorf("%w: ecdh agreement", ErrDecrypt)
	}
	aead, err := newAEAD(secret, ciphertext[:pointLen])
	if err != nil {
		return nil, err
	}
	rest := ciphertext[pointLen:]
	if len(rest) < aead.NonceSize() {
		return nil, ErrDecrypt
	}
	nonce, sealed := rest[:aead.NonceSize()], rest[aead.NonceSize():]
	plaintext, err := aead.Open(nil, nonce, sealed, nil)
	if err != nil {
		return nil, ErrDecrypt
	}
	return plaintext, nil
}

// newAEAD derives an AES-256-GCM cipher from the ECDH shared secret via
// HKDF-SHA256, binding the ephemeral public key as salt.
func newAEAD(secret, salt []byte) (cipher.AEAD, error) {
	return gcmFromKey(hkdfExpand(hkdfExtract(secret, salt), eciesInfo, 32))
}

// gcmFromKey builds the AES-GCM cipher both envelope formats seal under.
func gcmFromKey(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("new aes cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("new gcm: %w", err)
	}
	return aead, nil
}

// hkdfExtract is HKDF-Extract with SHA-256 (RFC 5869): the pseudorandom key
// (PRK) secret and salt condense into. An empty salt stands for HashLen zero
// bytes.
//
// HKDF is split into its two steps because the sessioned scheme remembers
// the extract output per agreement and runs only the expand per envelope.
// Both stay local rather than calling crypto/hkdf: its Expand takes info as
// a string, so every per-envelope info buffer would be copied once more —
// 11 allocations per 32-byte expand there against 7 here
// (testing.AllocsPerRun).
func hkdfExtract(secret, salt []byte) []byte {
	if len(salt) == 0 {
		salt = make([]byte, sha256.Size)
	}
	extractor := hmac.New(sha256.New, salt)
	extractor.Write(secret)
	return extractor.Sum(nil)
}

// hkdfExpand is HKDF-Expand: size bytes of output keying material from prk
// and info. Only the first ceil(size/32) blocks are computed.
func hkdfExpand(prk, info []byte, size int) []byte {
	out := make([]byte, 0, size+sha256.Size)
	var prev []byte
	for counter := byte(1); len(out) < size; counter++ {
		expander := hmac.New(sha256.New, prk)
		expander.Write(prev)
		expander.Write(info)
		expander.Write([]byte{counter})
		out = expander.Sum(out)
		prev = out[len(out)-sha256.Size:]
	}
	return out[:size]
}
