package cryptoutil

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hkdf"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"
	"testing"
)

// A sessioned envelope and its key schedule, pinned as hex. Requesters open
// what sources sealed under this schedule, so a change to any constant is a
// format change, never the side effect of a refactor. The vector was
// computed with crypto/ecdh, crypto/hkdf and crypto/cipher alone.
const (
	// Recipient scalar 0x11 repeated; session-ephemeral scalar 0x22
	// repeated, whose point is vectorSessionPointHex.
	vectorRecipientScalarHex = "1111111111111111111111111111111111111111111111111111111111111111"
	vectorSessionPointHex    = "04d65a93977caa3d1b081852ff57a79e465f1660577304baead505dd3a48589cf350185e895372df6221ea3a137557e473fddb6755f05bd507c3c533fce9c91285"
	vectorSessionGeneration  = 7
	// Context 0x55 repeated (a query digest's length).
	vectorSessionContextHex = "5555555555555555555555555555555555555555555555555555555555555555"
	// HKDF-Extract of the agreement, salted with the session point.
	vectorSessionPRKHex = "336b9c29685984785908f898bc237ef331a754dd7b37ed8d03ed21dfec0ca59e"
	// The envelope's AES-256 key.
	vectorSessionKeyHex = "2f4d7f5e9700088aa2101ed3a0edff60252756b93dbcac7f8149f659b4769c24"
	// GCM nonce 0x44 repeated || ciphertext of vectorSessionPlaintext.
	vectorSessionEnvelopeHex = "4444444444444444444444444c3f46f486c5e18fddb9dde41128893ebd7531e0b15f1d0ce98d546d72b5a78bfa2cb0f8777d6ad7da131127d5fd4d"
	vectorSessionPlaintext   = "sessioned envelope known answer"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad vector hex: %v", err)
	}
	return b
}

// vectorKey returns the P-256 key with the given scalar.
func vectorKey(t *testing.T, scalarHex string) *ecdsa.PrivateKey {
	t.Helper()
	scalar := unhex(t, scalarHex)
	k, err := ecdh.P256().NewPrivateKey(scalar)
	if err != nil {
		t.Fatalf("vector scalar: %v", err)
	}
	point := k.PublicKey().Bytes()
	return &ecdsa.PrivateKey{
		PublicKey: ecdsa.PublicKey{Curve: elliptic.P256(), X: new(big.Int).SetBytes(point[1:33]), Y: new(big.Int).SetBytes(point[33:])},
		D:         new(big.Int).SetBytes(scalar),
	}
}

// TestKnownAnswerSessionKey pins the sessioned key schedule: the PRK a
// Recipient remembers for the session point, the per-envelope key expanded
// from it, and an envelope that must open to the committed plaintext, cold
// and then warm from the remembered agreement.
func TestKnownAnswerSessionKey(t *testing.T) {
	point := unhex(t, vectorSessionPointHex)
	context := unhex(t, vectorSessionContextHex)
	envelope := unhex(t, vectorSessionEnvelopeHex)
	r := NewRecipient(vectorKey(t, vectorRecipientScalarHex))

	prk, err := r.prk(point)
	if err != nil {
		t.Fatalf("agreement: %v", err)
	}
	if got := hex.EncodeToString(prk); got != vectorSessionPRKHex {
		t.Fatalf("prk = %s, want %s", got, vectorSessionPRKHex)
	}
	key := sessionKey(prk, vectorSessionGeneration, context)
	if got := hex.EncodeToString(key[:]); got != vectorSessionKeyHex {
		t.Fatalf("session key = %s, want %s", got, vectorSessionKeyHex)
	}
	for _, pass := range []string{"cold", "warm"} {
		got, err := r.Open(nil, point, vectorSessionGeneration, context, envelope)
		if err != nil {
			t.Fatalf("%s open: %v", pass, err)
		}
		if string(got) != vectorSessionPlaintext {
			t.Fatalf("%s open = %q, want %q", pass, got, vectorSessionPlaintext)
		}
	}
}

// TestSessionKeyMatchesHKDF checks the per-envelope key against crypto/hkdf
// for empty, short, query-digest-sized and long contexts, and that two
// contexts give two keys.
func TestSessionKeyMatchesHKDF(t *testing.T) {
	prk := unhex(t, vectorSessionPRKHex)
	for _, n := range []int{0, 1, 32, 1000} {
		context := bytes.Repeat([]byte{byte(n)}, n)
		for _, generation := range []uint64{0, 1, 1<<64 - 1} {
			info := binary.BigEndian.AppendUint64([]byte(sessionInfo), generation)
			info = append(info, context...)
			want, err := hkdf.Expand(sha256.New, prk, string(info), 32)
			if err != nil {
				t.Fatalf("hkdf.Expand: %v", err)
			}
			if got := sessionKey(prk, generation, context); !bytes.Equal(got[:], want) {
				t.Fatalf("context %d bytes, generation %d: key = %x, want %x", n, generation, got, want)
			}
		}
	}
	if sessionKey(prk, 1, []byte("info")) == sessionKey(prk, 1, []byte("other")) {
		t.Fatal("session key does not depend on its context")
	}
}

// TestDigestMatchesStreamingSHA256 checks Digest and DigestHex against a
// streaming sha256 for one to four parts at total lengths around a multiple
// of the SHA-256 block size.
func TestDigestMatchesStreamingSHA256(t *testing.T) {
	for parts := 1; parts <= 4; parts++ {
		for _, total := range []int{0, 1, 255, 256, 257} {
			input := make([]byte, total)
			for i := range input {
				input[i] = byte(i * 7)
			}
			split := make([][]byte, parts)
			rest := input
			for i := range split {
				n := len(rest) / (parts - i)
				split[i], rest = rest[:n], rest[n:]
			}
			h := sha256.New()
			for _, p := range split {
				h.Write(p)
			}
			want := h.Sum(nil)
			name := fmt.Sprintf("%d parts, %d bytes", parts, total)
			if got := Digest(split...); !bytes.Equal(got, want) {
				t.Fatalf("%s: Digest = %x, want %x", name, got, want)
			}
			if got := DigestHex(split...); got != hex.EncodeToString(want) {
				t.Fatalf("%s: DigestHex = %s, want %x", name, got, want)
			}
		}
	}
}
