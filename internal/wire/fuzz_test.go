package wire

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// FuzzUnmarshalQueryResponse drives the full response decode stack —
// QueryResponse, nested Attestations with batch fields, the scalar-dup
// guard — with arbitrary bytes. Properties: never panic, never accept a
// message whose re-encoding decodes differently (the round-trip must be a
// fixed point once through the canonical encoder), and the hashing walk of
// every decoded message is SHA-256 of its encoding.
func FuzzUnmarshalQueryResponse(f *testing.F) {
	f.Add([]byte{})
	f.Add((&QueryResponse{RequestID: "r", EncryptedResult: []byte("enc"), PolicyDigest: []byte("pd")}).Marshal())
	// A batched response: attestations carrying size/index/path.
	batched := &QueryResponse{
		RequestID: "r",
		Attestations: []Attestation{{
			PeerName: "p0", OrgID: "org", CertPEM: []byte("cert"),
			EncryptedMetadata: []byte("em"), Signature: []byte("sig"),
			BatchSize: 8, BatchIndex: 3,
			BatchPath: [][]byte{bytes.Repeat([]byte{0xaa}, 32), bytes.Repeat([]byte{0xbb}, 32), bytes.Repeat([]byte{0xcc}, 32)},
		}},
	}
	f.Add(batched.Marshal())
	// A crafted duplicate scalar: valid encoding plus a second RequestID.
	dupe := NewEncoder(16)
	dupe.String(1, "other")
	f.Add(append(append([]byte{}, batched.Marshal()...), dupe.Bytes()...))
	// Truncated mid-message.
	full := batched.Marshal()
	f.Add(full[:len(full)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalQueryResponse(data)
		if err != nil {
			return
		}
		again, err := UnmarshalQueryResponse(m.Marshal())
		if err != nil {
			t.Fatalf("canonical re-encoding refused: %v", err)
		}
		if !bytes.Equal(m.Marshal(), again.Marshal()) {
			t.Fatal("decode/encode is not a fixed point")
		}
		if m.Digest() != sha256.Sum256(m.Marshal()) {
			t.Fatal("Digest differs from SHA-256 of Marshal")
		}
	})
}

// FuzzUnmarshalEnvelope drives the envelope decoder — the outermost frame
// every relay parses off the socket, now carrying the multi-hop route
// fields (repeated Route, scalar MaxHops) — with arbitrary bytes. Same
// properties as the other targets: never panic, reject crafted duplicate
// scalars, and once decoded, the canonical re-encoding is a fixed point.
func FuzzUnmarshalEnvelope(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Envelope{Version: 1, Type: MsgQuery, RequestID: "r", Payload: []byte("p"),
		TimeoutNanos: 30_000_000_000}).Marshal())
	routed := &Envelope{Version: 1, Type: MsgQuery, RequestID: "r", Payload: []byte("p"),
		Route: []string{"we-trade", "hub-1-net"}, MaxHops: 4}
	f.Add(routed.Marshal())
	traced := &Envelope{Version: 1, Type: MsgQueryResponse, RequestID: "r", Trace: &Trace{ID: "t",
		Spans: []Span{{Relay: "hub-1-net", Stage: "queue", StartNanos: 5, DurNanos: 7}}}}
	f.Add(traced.Marshal())
	// A crafted duplicate scalar: valid routed encoding plus a second MaxHops.
	dupe := NewEncoder(8)
	dupe.Uint(8, 9)
	f.Add(append(append([]byte{}, routed.Marshal()...), dupe.Bytes()...))
	// Truncated mid-message.
	full := routed.Marshal()
	f.Add(full[:len(full)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalEnvelope(data)
		if err != nil {
			return
		}
		again, err := UnmarshalEnvelope(m.Marshal())
		if err != nil {
			t.Fatalf("canonical re-encoding refused: %v", err)
		}
		if !bytes.Equal(m.Marshal(), again.Marshal()) {
			t.Fatal("decode/encode is not a fixed point")
		}
	})
}

// FuzzUnmarshalQuery covers the request side including repeated Args and
// the retired capability fields 13 and 14.
func FuzzUnmarshalQuery(f *testing.F) {
	f.Add([]byte{})
	valid := (&Query{RequestID: "r", Contract: "c", Function: "f",
		Args:  [][]byte{[]byte("a"), []byte("b")},
		Nonce: []byte("nonce"), PolicyDigest: []byte("pd")}).Marshal()
	f.Add(valid)
	f.Add(withRetiredCapabilities(valid))
	f.Add(withRetiredCapabilities(withRetiredCapabilities(valid)))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalQuery(data)
		if err != nil {
			return
		}
		again, err := UnmarshalQuery(m.Marshal())
		if err != nil {
			t.Fatalf("canonical re-encoding refused: %v", err)
		}
		if !bytes.Equal(m.Marshal(), again.Marshal()) {
			t.Fatal("decode/encode is not a fixed point")
		}
	})
}
