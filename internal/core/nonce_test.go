package core

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"encoding/hex"
	"math/big"
	"testing"

	"repro/internal/cryptoutil"
)

// TestKnownAnswerIdempotentNonce pins the nonce a client derives for a
// request ID: a retry must present the nonce of its original attempt, so
// the bytes may never change. The reference is SHA-256 over the private
// scalar's big.Int.Bytes (no leading zeros), "idempotent-nonce" and the
// request ID, cut to NonceSize; the second key's scalar has a leading zero
// byte, which the derivation drops as Bytes does. The derivation allocates
// nothing: the scalar stays on the stack and the nonce goes into the
// caller's array.
func TestKnownAnswerIdempotentNonce(t *testing.T) {
	for _, c := range []struct{ scalar, nonce string }{
		{"c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721", "279b97d50bbfb071ac0871d13467b41ed970b951121ce544"},
		{"00a1b2c3d4e5f60718293a4b5c6d7e8f90a1b2c3d4e5f60718293a4b5c6d7e8f", "d58ebdc9c9a432c46a5d2f9990fd899192d102fe8178bec6"},
	} {
		d, _ := new(big.Int).SetString(c.scalar, 16)
		key := &ecdsa.PrivateKey{PublicKey: ecdsa.PublicKey{Curve: elliptic.P256()}, D: d}
		var nonce [cryptoutil.NonceSize]byte
		idempotentNonce(&nonce, key, "transfer-po-1001")
		if got := hex.EncodeToString(nonce[:]); got != c.nonce {
			t.Fatalf("scalar %s…: nonce %s, want %s", c.scalar[:8], got, c.nonce)
		}
		if got := testing.AllocsPerRun(100, func() { idempotentNonce(&nonce, key, "transfer-po-1001") }); got != 0 {
			t.Fatalf("scalar %s…: %v allocations, want 0", c.scalar[:8], got)
		}
	}
}
