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
// That expand is sessionKey, one HMAC block written out over stack buffers;
// crypto/hkdf would build an HMAC and copy the info string per envelope.
// TestHKDFSizes checks the extract and TestSessionKeyMatchesHKDF the expand
// against crypto/hkdf.
func hkdfExtract(secret, salt []byte) []byte {
	if len(salt) == 0 {
		salt = make([]byte, sha256.Size)
	}
	extractor := hmac.New(sha256.New, salt)
	extractor.Write(secret)
	return extractor.Sum(nil)
}
