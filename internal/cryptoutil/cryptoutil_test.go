package cryptoutil

import (
	"bytes"
	"crypto/hkdf"
	"crypto/sha256"
	"testing"
	"testing/quick"
)

func TestSignVerifyRoundTrip(t *testing.T) {
	key, err := GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	msg := []byte("bill of lading for po-1001")
	sig, err := Sign(key, msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := Verify(&key.PublicKey, msg, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	key, err := GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	msg := []byte("original payload")
	sig, err := Sign(key, msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	tampered := []byte("original payloaD")
	if err := Verify(&key.PublicKey, tampered, sig); err == nil {
		t.Fatal("Verify accepted a tampered message")
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	key1, _ := GenerateKey()
	key2, _ := GenerateKey()
	msg := []byte("payload")
	sig, err := Sign(key1, msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := Verify(&key2.PublicKey, msg, sig); err == nil {
		t.Fatal("Verify accepted a signature from a different key")
	}
}

func TestSignNilKey(t *testing.T) {
	if _, err := Sign(nil, []byte("x")); err == nil {
		t.Fatal("Sign with nil key must error")
	}
	if err := Verify(nil, []byte("x"), []byte("y")); err == nil {
		t.Fatal("Verify with nil key must error")
	}
}

// TestSignDigestMatchesSign: a signature over a message and one over its
// digest are the same kind of signature, whichever side hashed.
func TestSignDigestMatchesSign(t *testing.T) {
	key, _ := GenerateKey()
	msg := []byte("proof bundle")
	digest := sha256.Sum256(msg)
	sig, err := Sign(key, msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := VerifyDigest(&key.PublicKey, digest[:], sig); err != nil {
		t.Fatalf("VerifyDigest of a Sign signature: %v", err)
	}
	sig, err = SignDigest(key, digest[:])
	if err != nil {
		t.Fatalf("SignDigest: %v", err)
	}
	if err := Verify(&key.PublicKey, msg, sig); err != nil {
		t.Fatalf("Verify of a SignDigest signature: %v", err)
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

func TestEncryptDecryptRoundTrip(t *testing.T) {
	key, _ := GenerateKey()
	plaintext := []byte("confidential B/L contents")
	ct, err := Encrypt(&key.PublicKey, plaintext)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	if bytes.Contains(ct, plaintext) {
		t.Fatal("ciphertext contains plaintext")
	}
	got, err := Decrypt(key, ct)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if !bytes.Equal(got, plaintext) {
		t.Fatalf("Decrypt = %q, want %q", got, plaintext)
	}
}

func TestDecryptWrongKey(t *testing.T) {
	key1, _ := GenerateKey()
	key2, _ := GenerateKey()
	ct, err := Encrypt(&key1.PublicKey, []byte("secret"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	if _, err := Decrypt(key2, ct); err == nil {
		t.Fatal("Decrypt with wrong key succeeded")
	}
}

func TestDecryptTamperedCiphertext(t *testing.T) {
	key, _ := GenerateKey()
	ct, err := Encrypt(&key.PublicKey, []byte("secret"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	ct[len(ct)-1] ^= 0xFF
	if _, err := Decrypt(key, ct); err == nil {
		t.Fatal("Decrypt accepted tampered ciphertext")
	}
}

func TestDecryptTruncated(t *testing.T) {
	key, _ := GenerateKey()
	for _, n := range []int{0, 1, 30, 64, 65, 70} {
		buf := make([]byte, n)
		if _, err := Decrypt(key, buf); err == nil {
			t.Fatalf("Decrypt accepted %d-byte garbage", n)
		}
	}
}

func TestEncryptEmptyPlaintext(t *testing.T) {
	key, _ := GenerateKey()
	ct, err := Encrypt(&key.PublicKey, nil)
	if err != nil {
		t.Fatalf("Encrypt(nil): %v", err)
	}
	got, err := Decrypt(key, ct)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("Decrypt of empty plaintext = %q", got)
	}
}

func TestEncryptNondeterministic(t *testing.T) {
	key, _ := GenerateKey()
	ct1, _ := Encrypt(&key.PublicKey, []byte("same"))
	ct2, _ := Encrypt(&key.PublicKey, []byte("same"))
	if bytes.Equal(ct1, ct2) {
		t.Fatal("two encryptions of the same plaintext are identical")
	}
}

// TestEncryptDecryptProperty exercises the ECIES scheme over arbitrary
// payloads via testing/quick.
func TestEncryptDecryptProperty(t *testing.T) {
	key, _ := GenerateKey()
	roundTrip := func(data []byte) bool {
		ct, err := Encrypt(&key.PublicKey, data)
		if err != nil {
			return false
		}
		got, err := Decrypt(key, ct)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSignVerifyProperty exercises sign/verify over arbitrary messages.
func TestSignVerifyProperty(t *testing.T) {
	key, _ := GenerateKey()
	prop := func(msg []byte) bool {
		sig, err := Sign(key, msg)
		if err != nil {
			return false
		}
		return Verify(&key.PublicKey, msg, sig) == nil
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

// TestHKDFSizes checks the local HKDF steps against crypto/hkdf, the
// reference implementation, for every output size and salt shape the
// schemes could use.
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
		for _, size := range []int{1, 16, 32, 33, 64, 100} {
			out := hkdfExpand(prk, []byte("info"), size)
			want, err := hkdf.Expand(sha256.New, prk, "info", size)
			if err != nil {
				t.Fatalf("hkdf.Expand: %v", err)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("salt %q size %d: expand = %x, want %x", salt, size, out, want)
			}
		}
	}
	prk := hkdfExtract(secret, []byte("salt"))
	if bytes.Equal(hkdfExpand(prk, []byte("info"), 32), hkdfExpand(prk, []byte("other"), 32)) {
		t.Fatal("hkdf output does not depend on info")
	}
}

func BenchmarkSign(b *testing.B) {
	key, _ := GenerateKey()
	msg := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sign(key, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	key, _ := GenerateKey()
	msg := make([]byte, 1024)
	sig, _ := Sign(key, msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(&key.PublicKey, msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncrypt1KiB(b *testing.B) {
	key, _ := GenerateKey()
	msg := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encrypt(&key.PublicKey, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt1KiB(b *testing.B) {
	key, _ := GenerateKey()
	msg := make([]byte, 1024)
	ct, _ := Encrypt(&key.PublicKey, msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decrypt(key, ct); err != nil {
			b.Fatal(err)
		}
	}
}
