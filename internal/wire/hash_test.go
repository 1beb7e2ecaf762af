package wire

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// checkHashingWalk holds a hashing walk of m to the bytes Marshal builds:
// Digest is their SHA-256 and the walk's Len their length.
func checkHashingWalk(t *testing.T, name string, m *QueryResponse) {
	t.Helper()
	b := m.Marshal()
	if got, want := m.Digest(), sha256.Sum256(b); got != want {
		t.Fatalf("%s: Digest %x, SHA-256 of Marshal %x", name, got, want)
	}
	w := Hashing(nil)
	m.walk(&w)
	if w.Len() != len(b) {
		t.Fatalf("%s: hashing walk emitted %d bytes, Marshal %d", name, w.Len(), len(b))
	}
	w.Sum()
}

// TestHashingWalkMatchesMarshal: a hashing walk emits exactly the bytes a
// writing walk appends. Generated responses put fields of every
// length-prefix width at random offsets, so the scratch buffer fills
// mid-field and mid-varint; the fixed cases cover 0–4 hop pins and every
// result length up to three scratch buffers.
func TestHashingWalkMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 300; i++ {
		checkHashingWalk(t, "generated", genQueryResponse(r))
	}
	pin := HopPin{Network: "hub-net", CertPEM: bytes.Repeat([]byte{'c'}, 600), Pin: make([]byte, 32), Signature: make([]byte, 71)}
	for n := 0; n <= 4; n++ {
		m := &QueryResponse{RequestID: "req", EncryptedResult: make([]byte, 1000), PolicyDigest: make([]byte, 32)}
		for range n {
			m.HopPins = append(m.HopPins, pin)
		}
		checkHashingWalk(t, "pinned", m)
	}
	for n := 0; n <= 3*hashScratch; n++ {
		checkHashingWalk(t, "result length", &QueryResponse{RequestID: "r", EncryptedResult: make([]byte, n), SessionGeneration: 1 << 60})
	}
}

// TestHashingWalkPrefix: Hashing's prefix comes before the walk's bytes,
// and a walk ended by Sum hands back state that the next one starts clean.
func TestHashingWalkPrefix(t *testing.T) {
	pin := HopPin{Network: "hub-net", CertPEM: []byte("cert"), Pin: make([]byte, 32), Signature: []byte("sig")}
	prefix := []byte("domain\x00")
	for range 3 {
		w := Hashing(prefix)
		pin.walk(&w)
		if got, want := w.Sum(), sha256.Sum256(append(bytes.Clone(prefix), pin.Marshal()...)); got != want {
			t.Fatalf("prefixed hashing walk %x, want %x", got, want)
		}
	}
}

// TestHashingWalkAllocations is the tripwire of the hashing mode: a warm
// Digest allocates nothing, whatever the response size, because its state
// is pooled and its sum is returned by value.
func TestHashingWalkAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the pooled digesters' counts do not hold under the race detector")
	}
	for _, n := range []int{1 << 10, 64 << 10} {
		m := &QueryResponse{RequestID: "req", EncryptedResult: make([]byte, n), Attestations: []Attestation{{CertPEM: make([]byte, 700)}}}
		if got := testing.AllocsPerRun(100, func() { _ = m.Digest() }); got != 0 {
			t.Errorf("Digest of a %d-byte result: %v allocations, want 0", n, got)
		}
	}
}
