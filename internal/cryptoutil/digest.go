package cryptoutil

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// DigestSize is the size in bytes of digests produced by Digest.
const DigestSize = sha256.Size

// Digest returns the SHA-256 digest of the concatenation of the given byte
// slices. It is the hashing primitive for transaction IDs and proof
// metadata binding. The returned slice is its only allocation.
func Digest(parts ...[]byte) []byte {
	sum := Sum(parts...)
	return sum[:]
}

// DigestHex returns the hex encoding of Digest(parts...). Used for
// human-readable transaction and block identifiers. The returned string is
// its only allocation.
func DigestHex(parts ...[]byte) string {
	sum := Sum(parts...)
	var out [2 * DigestSize]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// Sum is Digest returned as an array. It streams the parts through one
// SHA-256, so neither the hash state nor the sum reaches the heap: a
// caller that keeps the array on its stack allocates nothing.
func Sum(parts ...[]byte) [DigestSize]byte {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var sum [DigestSize]byte
	h.Sum(sum[:0])
	return sum
}

// SumString is Sum(prefix, []byte(s)) without the conversion, which
// allocates for any string over 32 bytes: s reaches the hash through a
// buffer on the stack, so the call allocates nothing.
func SumString(prefix []byte, s string) [DigestSize]byte {
	h := sha256.New()
	h.Write(prefix)
	var buf [sha256.BlockSize]byte
	for len(s) > 0 {
		n := copy(buf[:], s)
		h.Write(buf[:n])
		s = s[n:]
	}
	var sum [DigestSize]byte
	h.Sum(sum[:0])
	return sum
}

// NonceSize is the size in bytes of nonces produced by NewNonce.
const NonceSize = 24

// NewNonce returns a fresh random nonce used for replay protection of
// cross-network queries (§4.3 of the paper: nonces generated by the
// requesting client and recorded on the destination ledger).
func NewNonce() ([]byte, error) {
	nonce := new([NonceSize]byte)
	if err := ReadNonce(nonce); err != nil {
		return nil, err
	}
	return nonce[:], nil
}

// ReadNonce fills nonce with fresh random bytes, as NewNonce does, for a
// caller that allocates the nonce together with what carries it.
func ReadNonce(nonce *[NonceSize]byte) error {
	if _, err := rand.Read(nonce[:]); err != nil {
		return fmt.Errorf("generate nonce: %w", err)
	}
	return nil
}

// NewNonceHex returns the hex encoding of n fresh random bytes, for an
// identifier rather than a replay nonce; n is at most NonceSize. The
// bytes and their encoding stay on the stack, so the returned string is
// its only allocation.
func NewNonceHex(n int) (string, error) {
	var nonce [NonceSize]byte
	if _, err := rand.Read(nonce[:n]); err != nil {
		return "", fmt.Errorf("generate nonce: %w", err)
	}
	var out [2 * NonceSize]byte
	hex.Encode(out[:], nonce[:n])
	return string(out[:2*n]), nil
}
