package proof

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

// FuzzUnmarshalSealed exercises the persisted-proof decoder: the artifact
// a replayed invoke serves byte-for-byte, so the decoder must be total
// (no panics) and strict (no last-write-wins on duplicate scalars).
func FuzzUnmarshalSealed(f *testing.F) {
	f.Add([]byte{})
	inner := &wire.QueryResponse{
		RequestID: "r",
		Attestations: []wire.Attestation{{
			PeerName: "p0", OrgID: "org", CertPEM: []byte("cert"),
			EncryptedMetadata: []byte("em"), Signature: []byte("sig"),
			BatchSize: 4, BatchIndex: 2,
			BatchPath: [][]byte{bytes.Repeat([]byte{0x11}, 32), bytes.Repeat([]byte{0x22}, 32)},
		}},
	}
	sealed := &Sealed{
		QueryDigest:  bytes.Repeat([]byte{0xab}, 32),
		PolicyDigest: bytes.Repeat([]byte{0xcd}, 32),
		UnixNano:     1700000000000000000,
		Attestors:    []string{"org/p0", "org2/p1"},
		Response:     inner.Marshal(),
	}
	valid := sealed.Marshal()
	f.Add(valid)
	// The attack shape the guard exists for: a second Response occurrence
	// appended after the digest-pinned first one.
	dupe := wire.NewEncoder(16)
	dupe.BytesField(5, []byte("decoy"))
	f.Add(append(append([]byte{}, valid...), dupe.Bytes()...))
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalSealed(data)
		if err != nil {
			return
		}
		again, err := UnmarshalSealed(s.Marshal())
		if err != nil {
			t.Fatalf("canonical re-encoding refused: %v", err)
		}
		if !bytes.Equal(s.Marshal(), again.Marshal()) {
			t.Fatal("decode/encode is not a fixed point")
		}
	})
}

// FuzzUnmarshalBundle exercises the bundle decoder: the CMDAC decodes
// client-submitted bundles, so the decoder must be total (no panics) and
// strict (no last-write-wins on a duplicated scalar, in the bundle or in
// one of its elements), and once decoded, the canonical re-encoding is a
// fixed point.
func FuzzUnmarshalBundle(f *testing.F) {
	f.Add([]byte{})
	el := Element{
		CertPEM: []byte("cert"), Metadata: []byte("metadata"), Signature: []byte("sig"),
		BatchSize: 4, BatchIndex: 2,
		BatchPath: [][]byte{bytes.Repeat([]byte{0x11}, 32), bytes.Repeat([]byte{0x22}, 32)},
	}
	b := &Bundle{
		SourceNetwork: "tradelens", Result: []byte("result"), Nonce: []byte("nonce"),
		Elements:    []Element{el, {CertPEM: []byte("cert2"), Metadata: []byte("md2"), Signature: []byte("sig2")}},
		QueryDigest: bytes.Repeat([]byte{0xab}, 32), PolicyDigest: bytes.Repeat([]byte{0xcd}, 32),
		UnixNano: 1700000000000000000,
	}
	valid := b.Marshal()
	f.Add(valid)
	// A second Result behind the one the attestors' result digest covers.
	dupe := wire.NewEncoder(16)
	dupe.BytesField(2, []byte("decoy"))
	f.Add(append(bytes.Clone(valid), dupe.Bytes()...))
	// An element carrying a second Signature.
	elem := wire.NewEncoder(64)
	elem.BytesField(1, []byte("cert"))
	elem.BytesField(2, []byte("metadata"))
	elem.BytesField(3, []byte("sig"))
	elem.BytesField(3, []byte("decoy"))
	dupeElem := wire.NewEncoder(64)
	dupeElem.Message(4, elem.Bytes())
	f.Add(append(bytes.Clone(valid), dupeElem.Bytes()...))
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := UnmarshalBundle(data)
		if err != nil {
			return
		}
		again, err := UnmarshalBundle(b.Marshal())
		if err != nil {
			t.Fatalf("canonical re-encoding refused: %v", err)
		}
		if !bytes.Equal(b.Marshal(), again.Marshal()) {
			t.Fatal("decode/encode is not a fixed point")
		}
	})
}
