package cryptoutil

import (
	"strings"
	"testing"
	"time"
)

// Sinks keep results escaping, as they do at every real call site.
var (
	sinkBytes  []byte
	sinkString string
	sinkSum    [DigestSize]byte
)

// TestCryptoAllocations is the allocation tripwire of the per-request
// derivations: a warm open, whose cipher the Recipient kept, allocates only
// its output (into a buffer with room for its plaintext, as
// proof.OpenResponse does, nothing at all); an open under a fresh context
// and a seal allocate what aes.NewCipher and cipher.NewGCM allocate, plus
// the seal's output; a digest only its result, and Sum nothing. A change
// may lower a row, never raise it.
func TestCryptoAllocations(t *testing.T) {
	key, err := GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	sk, err := NewSessionManager(time.Minute, nil).KeyFor("requester", &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor: %v", err)
	}
	context, plaintext := make([]byte, 32), make([]byte, 100)
	envelope, err := sealPlain(sk, context, plaintext)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	r := NewRecipient(key)
	if _, err := r.Open(nil, sk.Ephemeral, sk.Generation, context, envelope); err != nil {
		t.Fatalf("Open: %v", err)
	}
	room := make([]byte, PlaintextSize(envelope))
	// Envelopes under distinct contexts, one per run of the fresh row
	// (AllocsPerRun calls it runs+1 times), so each misses the cipher table
	// and runs through its wholesale clear.
	const runs = 200
	fresh := make([][]byte, runs+1)
	freshContexts := make([][]byte, runs+1)
	for i := range fresh {
		freshContexts[i] = []byte{byte(i), byte(i >> 8), 'f'}
		if fresh[i], err = sealPlain(sk, freshContexts[i], plaintext); err != nil {
			t.Fatalf("Seal: %v", err)
		}
	}
	next := 0
	domain := []byte("interop-domain")
	long := strings.Repeat("OR('org-a','org-b') ", 10)
	for _, row := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"warm Recipient.Open", 1, func() { sinkBytes, _ = r.Open(nil, sk.Ephemeral, sk.Generation, context, envelope) }},
		{"warm Recipient.Open into a buffer with room", 0, func() { sinkBytes, _ = r.Open(room[:0], sk.Ephemeral, sk.Generation, context, envelope) }},
		{"Recipient.Open of a fresh context into a buffer with room", 2, func() {
			sinkBytes, _ = r.Open(room[:0], sk.Ephemeral, sk.Generation, freshContexts[next], fresh[next])
			next++
		}},
		{"SessionKey.SealEnvelope of a new envelope", 3, func() { sinkBytes, _ = sealPlain(sk, context, plaintext) }},
		{"Digest one part", 1, func() { sinkBytes = Digest(plaintext) }},
		{"Digest small parts", 1, func() { sinkBytes = Digest(domain, context, plaintext) }},
		{"DigestHex", 1, func() { sinkString = DigestHex(domain, context) }},
		{"Sum", 0, func() { sinkSum = Sum(domain, context, plaintext) }},
		{"SumString", 0, func() { sinkSum = SumString(domain, long) }},
	} {
		if got := testing.AllocsPerRun(runs, row.fn); got > row.max {
			t.Errorf("%s: %v allocations, want <= %v", row.name, got, row.max)
		} else {
			t.Logf("%s: %v allocations", row.name, got)
		}
	}
}
