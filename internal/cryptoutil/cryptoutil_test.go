package cryptoutil

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/hkdf"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// sign and verify sign and check a message through its digest, as every
// signer in the system does.
func sign(key *ecdsa.PrivateKey, msg []byte) ([]byte, error) { return SignDigest(key, Digest(msg)) }

func verify(pub *ecdsa.PublicKey, msg, sig []byte) error { return VerifyDigest(pub, Digest(msg), sig) }

func TestSignVerifyRoundTrip(t *testing.T) {
	key, err := GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	msg := []byte("bill of lading for po-1001")
	sig, err := sign(key, msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := verify(&key.PublicKey, msg, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	key, err := GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	msg := []byte("original payload")
	sig, err := sign(key, msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	tampered := []byte("original payloaD")
	if err := verify(&key.PublicKey, tampered, sig); err == nil {
		t.Fatal("Verify accepted a tampered message")
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	key1, _ := GenerateKey()
	key2, _ := GenerateKey()
	msg := []byte("payload")
	sig, err := sign(key1, msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := verify(&key2.PublicKey, msg, sig); err == nil {
		t.Fatal("Verify accepted a signature from a different key")
	}
}

func TestSignNilKey(t *testing.T) {
	if _, err := sign(nil, []byte("x")); err == nil {
		t.Fatal("Sign with nil key must error")
	}
	if err := verify(nil, []byte("x"), []byte("y")); err == nil {
		t.Fatal("Verify with nil key must error")
	}
}

// TestSignDigestMatchesSign: a SignDigest signature is the standard ECDSA
// signature over the message's SHA-256, whichever side hashed: it checks
// under crypto/ecdsa, and VerifyDigest takes one crypto/ecdsa made.
func TestSignDigestMatchesSign(t *testing.T) {
	key, _ := GenerateKey()
	msg := []byte("proof bundle")
	digest := sha256.Sum256(msg)
	sig, err := ecdsa.SignASN1(rand.Reader, key, digest[:])
	if err != nil {
		t.Fatalf("ecdsa.SignASN1: %v", err)
	}
	if err := VerifyDigest(&key.PublicKey, digest[:], sig); err != nil {
		t.Fatalf("VerifyDigest of a crypto/ecdsa signature: %v", err)
	}
	sig, err = SignDigest(key, digest[:])
	if err != nil {
		t.Fatalf("SignDigest: %v", err)
	}
	if !ecdsa.VerifyASN1(&key.PublicKey, digest[:], sig) {
		t.Fatal("crypto/ecdsa refused a SignDigest signature")
	}
	if _, err := SignDigest(key, msg); err == nil {
		t.Fatal("SignDigest accepted a message in place of its digest")
	}
	if err := VerifyDigest(&key.PublicKey, digest[:31], sig); err == nil {
		t.Fatal("VerifyDigest accepted a truncated digest")
	}
	if err := VerifyDigest(nil, digest[:], sig); err == nil {
		t.Fatal("VerifyDigest with nil key must error")
	}
}

func TestPublicKeyMarshalRoundTrip(t *testing.T) {
	key, _ := GenerateKey()
	der, err := MarshalPublicKey(&key.PublicKey)
	if err != nil {
		t.Fatalf("MarshalPublicKey: %v", err)
	}
	parsed, err := ParsePublicKey(der)
	if err != nil {
		t.Fatalf("ParsePublicKey: %v", err)
	}
	if !parsed.Equal(&key.PublicKey) {
		t.Fatal("round-tripped public key differs")
	}
}

func TestPrivateKeyMarshalRoundTrip(t *testing.T) {
	key, _ := GenerateKey()
	der, err := MarshalPrivateKey(key)
	if err != nil {
		t.Fatalf("MarshalPrivateKey: %v", err)
	}
	parsed, err := ParsePrivateKey(der)
	if err != nil {
		t.Fatalf("ParsePrivateKey: %v", err)
	}
	if !parsed.Equal(key) {
		t.Fatal("round-tripped private key differs")
	}
}

func TestParsePublicKeyGarbage(t *testing.T) {
	if _, err := ParsePublicKey([]byte("not a key")); err == nil {
		t.Fatal("ParsePublicKey accepted garbage")
	}
	if _, err := ParsePrivateKey([]byte{0x01, 0x02}); err == nil {
		t.Fatal("ParsePrivateKey accepted garbage")
	}
}

// TestSignVerifyProperty exercises sign/verify over arbitrary messages.
func TestSignVerifyProperty(t *testing.T) {
	key, _ := GenerateKey()
	prop := func(msg []byte) bool {
		sig, err := sign(key, msg)
		if err != nil {
			return false
		}
		return verify(&key.PublicKey, msg, sig) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDigestDeterministic(t *testing.T) {
	a := Digest([]byte("a"), []byte("b"))
	b := Digest([]byte("a"), []byte("b"))
	if !bytes.Equal(a, b) {
		t.Fatal("Digest is not deterministic")
	}
	if len(a) != DigestSize {
		t.Fatalf("Digest size = %d, want %d", len(a), DigestSize)
	}
	c := Digest([]byte("ab"))
	if !bytes.Equal(a, c) {
		t.Fatal("Digest over split parts differs from concatenation")
	}
	if bytes.Equal(a, Digest([]byte("x"))) {
		t.Fatal("distinct inputs collide")
	}
}

// TestSumStringMatchesSum: SumString hashes a string exactly as Sum
// hashes its bytes, at every length around the stack buffer's.
func TestSumStringMatchesSum(t *testing.T) {
	prefix := []byte("domain\x00")
	for _, n := range []int{0, 1, 32, 33, 63, 64, 65, 128, 1000} {
		s := strings.Repeat("x", n)
		if got, want := SumString(prefix, s), Sum(prefix, []byte(s)); got != want {
			t.Fatalf("%d-byte string: SumString %x, Sum %x", n, got, want)
		}
	}
}

func TestDigestHex(t *testing.T) {
	h := DigestHex([]byte("hello"))
	if len(h) != 2*DigestSize {
		t.Fatalf("DigestHex length = %d", len(h))
	}
}

func TestNewNonceUnique(t *testing.T) {
	n1, err := NewNonce()
	if err != nil {
		t.Fatalf("NewNonce: %v", err)
	}
	n2, err := NewNonce()
	if err != nil {
		t.Fatalf("NewNonce: %v", err)
	}
	if len(n1) != NonceSize || len(n2) != NonceSize {
		t.Fatal("nonce has wrong size")
	}
	if bytes.Equal(n1, n2) {
		t.Fatal("two nonces are identical")
	}
}

// TestHKDFSizes checks the local HKDF extract against crypto/hkdf, the
// reference implementation, for both salt shapes the schemes could use.
// The expand is sessionKey, which TestSessionKeyMatchesHKDF checks.
func TestHKDFSizes(t *testing.T) {
	secret := []byte("shared-secret")
	for _, salt := range [][]byte{nil, []byte("salt")} {
		prk := hkdfExtract(secret, salt)
		wantPRK, err := hkdf.Extract(sha256.New, secret, salt)
		if err != nil {
			t.Fatalf("hkdf.Extract: %v", err)
		}
		if !bytes.Equal(prk, wantPRK) {
			t.Fatalf("salt %q: extract = %x, want %x", salt, prk, wantPRK)
		}
	}
}

// sealPlain seals plaintext under sk as the proof builder does: appended to
// a NewEnvelope buffer and sealed in place.
func sealPlain(sk SessionKey, context, plaintext []byte) ([]byte, error) {
	return sk.SealEnvelope(context, append(NewEnvelope(len(plaintext)), plaintext...))
}

// sealTo seals plaintext for key under context with a fresh session manager,
// the one encryption scheme responses travel under.
func sealTo(t testing.TB, key *ecdsa.PrivateKey, context, plaintext []byte) (SessionKey, []byte) {
	t.Helper()
	sk, err := NewSessionManager(time.Minute, nil).KeyFor("requester", &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor: %v", err)
	}
	env, err := sealPlain(sk, context, plaintext)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return sk, env
}

// TestEncryptDecryptRoundTrip: plaintexts from one byte to 64 KiB seal and
// open back unchanged, and no envelope carries its plaintext in the clear.
func TestEncryptDecryptRoundTrip(t *testing.T) {
	key, _ := GenerateKey()
	context := []byte("query-digest")
	for _, size := range []int{1, 31, 1024, 64 << 10} {
		plaintext := bytes.Repeat([]byte("metadata"), size/8+1)[:size]
		sk, env := sealTo(t, key, context, plaintext)
		if size >= 8 && bytes.Contains(env, plaintext[:8]) {
			t.Fatalf("size %d: envelope carries the plaintext in the clear", size)
		}
		got, err := NewRecipient(key).Open(nil, sk.Ephemeral, sk.Generation, context, env)
		if err != nil {
			t.Fatalf("size %d: Open: %v", size, err)
		}
		if !bytes.Equal(got, plaintext) {
			t.Fatalf("size %d: round trip differs", size)
		}
	}
}

// TestEncryptDecryptProperty: for arbitrary contexts and plaintexts, an
// envelope opens under the context it was sealed with and under no other.
func TestEncryptDecryptProperty(t *testing.T) {
	key, _ := GenerateKey()
	sk, err := NewSessionManager(time.Minute, nil).KeyFor("prop", &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor: %v", err)
	}
	r := NewRecipient(key)
	prop := func(context, plaintext []byte) bool {
		env, err := sealPlain(sk, context, plaintext)
		if err != nil {
			return false
		}
		got, err := r.Open(nil, sk.Ephemeral, sk.Generation, context, env)
		if err != nil || !bytes.Equal(got, plaintext) {
			return false
		}
		_, err = r.Open(nil, sk.Ephemeral, sk.Generation, append(context, 0), env)
		return errors.Is(err, ErrDecrypt)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDecryptWrongKey: an envelope sealed for one key, under its own session
// point, does not open with another key.
func TestDecryptWrongKey(t *testing.T) {
	key, _ := GenerateKey()
	other, _ := GenerateKey()
	context := []byte("qd-wrong-key")
	sk, env := sealTo(t, key, context, []byte("for key only"))
	if _, err := NewRecipient(other).Open(nil, sk.Ephemeral, sk.Generation, context, env); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("other key: got %v, want ErrDecrypt", err)
	}
	if got, err := NewRecipient(key).Open(nil, sk.Ephemeral, sk.Generation, context, env); err != nil || string(got) != "for key only" {
		t.Fatalf("own key: %q, %v", got, err)
	}
}

// TestDecryptTamperedCiphertext: flipping any single byte of an envelope —
// GCM nonce, ciphertext or tag — makes it fail to open.
func TestDecryptTamperedCiphertext(t *testing.T) {
	key, _ := GenerateKey()
	context := []byte("qd-tamper")
	sk, env := sealTo(t, key, context, []byte("transfer 100 units to org2"))
	r := NewRecipient(key)
	for i := range env {
		tampered := append([]byte(nil), env...)
		tampered[i] ^= 0x01
		if _, err := r.Open(nil, sk.Ephemeral, sk.Generation, context, tampered); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("byte %d flipped: got %v, want ErrDecrypt", i, err)
		}
	}
}

// TestDecryptTruncated: every proper prefix of an envelope, the empty one
// included, and the envelope with a byte appended fail to open.
func TestDecryptTruncated(t *testing.T) {
	key, _ := GenerateKey()
	context := []byte("qd-truncated")
	sk, env := sealTo(t, key, context, []byte("payload"))
	r := NewRecipient(key)
	for n := 0; n < len(env); n++ {
		if _, err := r.Open(nil, sk.Ephemeral, sk.Generation, context, env[:n]); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("%d of %d bytes: got %v, want ErrDecrypt", n, len(env), err)
		}
	}
	extended := append(append([]byte(nil), env...), 0x00)
	if _, err := r.Open(nil, sk.Ephemeral, sk.Generation, context, extended); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("byte appended: got %v, want ErrDecrypt", err)
	}
}

func BenchmarkSign(b *testing.B) {
	key, _ := GenerateKey()
	msg := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sign(key, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	key, _ := GenerateKey()
	msg := make([]byte, 1024)
	sig, _ := sign(key, msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := verify(&key.PublicKey, msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}
