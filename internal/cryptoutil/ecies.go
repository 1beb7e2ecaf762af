package cryptoutil

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
)

// ErrDecrypt is returned when a ciphertext cannot be decrypted, either
// because it is malformed or because the wrong private key was used.
var ErrDecrypt = errors.New("cryptoutil: decryption failed")

// gcmFromKey builds the AES-GCM cipher sessioned envelopes seal under.
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
