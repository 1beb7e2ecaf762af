package proof

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/wire"
)

// oracleBundle is the nested-encoder Bundle.Marshal the field walk
// replaced: each element encoded into its own buffer, then copied behind
// its key. The walk must produce exactly its bytes.
func oracleBundle(b *Bundle) []byte {
	e := wire.NewEncoder(0)
	e.String(1, b.SourceNetwork)
	e.BytesField(2, b.Result)
	e.BytesField(3, b.Nonce)
	for i := range b.Elements {
		el := &b.Elements[i]
		ee := wire.NewEncoder(0)
		ee.BytesField(1, el.CertPEM)
		ee.BytesField(2, el.Metadata)
		ee.BytesField(3, el.Signature)
		ee.Uint(4, el.BatchSize)
		ee.Uint(5, el.BatchIndex)
		for _, h := range el.BatchPath {
			ee.Message(6, h)
		}
		e.Message(4, ee.Bytes())
	}
	e.BytesField(5, b.QueryDigest)
	e.BytesField(6, b.PolicyDigest)
	e.Uint(7, b.UnixNano)
	return e.Bytes()
}

func oracleSealed(s *Sealed) []byte {
	e := wire.NewEncoder(0)
	e.BytesField(1, s.QueryDigest)
	e.BytesField(2, s.PolicyDigest)
	e.Uint(3, s.UnixNano)
	for _, a := range s.Attestors {
		e.String(4, a)
	}
	e.BytesField(5, s.Response)
	return e.Bytes()
}

// genBytes returns random bytes whose length is, half the time, one at
// which a length prefix changes width (or zero).
func genBytes(r *rand.Rand) []byte {
	n := r.Intn(40)
	if r.Intn(2) == 0 {
		n = []int{0, 127, 128, 16383, 16384}[r.Intn(5)]
	}
	b := make([]byte, n)
	r.Read(b)
	return b
}

func genUint(r *rand.Rand) uint64 {
	if r.Intn(3) == 0 {
		return 0
	}
	return r.Uint64() >> r.Intn(64)
}

func genRepeated[T any](r *rand.Rand, gen func(*rand.Rand) T) []T {
	out := make([]T, r.Intn(4))
	for i := range out {
		out[i] = gen(r)
	}
	return out
}

func genBundle(r *rand.Rand) *Bundle {
	b := &Bundle{
		SourceNetwork: string(genBytes(r)), Result: genBytes(r), Nonce: genBytes(r),
		QueryDigest: genBytes(r), PolicyDigest: genBytes(r), UnixNano: genUint(r),
	}
	b.Elements = genRepeated(r, func(r *rand.Rand) Element {
		return Element{
			CertPEM: genBytes(r), Metadata: genBytes(r), Signature: genBytes(r),
			BatchSize: genUint(r), BatchIndex: genUint(r), BatchPath: genRepeated(r, genBytes),
		}
	})
	return b
}

func genSealed(r *rand.Rand) *Sealed {
	return &Sealed{
		QueryDigest: genBytes(r), PolicyDigest: genBytes(r), UnixNano: genUint(r),
		Attestors: genRepeated(r, func(r *rand.Rand) string { return string(genBytes(r)) }), Response: genBytes(r),
	}
}

// checkWalk: Marshal fills exactly the one buffer it allocates, matches
// the reference encoder, and decoding then re-encoding is a fixed point.
func checkWalk[M any](t *testing.T, gen func(*rand.Rand) M, marshal, oracle func(M) []byte, unmarshal func([]byte) (M, error)) {
	t.Helper()
	prop := func(m M) bool {
		b := marshal(m)
		if len(b) != cap(b) || !bytes.Equal(b, oracle(m)) {
			t.Logf("Marshal: %d bytes in a buffer of %d, reference %d bytes", len(b), cap(b), len(oracle(m)))
			return false
		}
		got, err := unmarshal(b)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		return bytes.Equal(marshal(got), b)
	}
	cfg := &quick.Config{MaxCount: 150, Values: func(args []reflect.Value, r *rand.Rand) {
		args[0] = reflect.ValueOf(gen(r))
	}}
	if err := quick.Check(prop, cfg); err != nil {
		// Not err itself: it prints the whole generated message.
		t.Fatalf("property failed on generated message %d", err.(*quick.CheckError).Count)
	}
}

func TestWalkBundle(t *testing.T) {
	checkWalk(t, genBundle, (*Bundle).Marshal, oracleBundle, UnmarshalBundle)
}

func TestWalkSealed(t *testing.T) {
	checkWalk(t, genSealed, (*Sealed).Marshal, oracleSealed, UnmarshalSealed)
}

// TestBundleMarshalAllocations: a two-attestor bundle, batched elements
// included, encodes in one allocation. The decode rows pin what decoding
// it, and a sealed proof, costs: each repeated field's slice is sized once
// (the rows were 7 and 4 while each growth of one allocated).
func TestBundleMarshalAllocations(t *testing.T) {
	b, s := allocFixture()
	encodedBundle, encodedSealed := b.Marshal(), s.Marshal()
	for _, c := range []struct {
		name string
		want float64
		run  func()
	}{
		{"Bundle.Marshal", 1, func() { _ = b.Marshal() }},
		{"UnmarshalBundle", 4, func() { _, _ = UnmarshalBundle(encodedBundle) }},
		{"UnmarshalSealed", 3, func() { _, _ = UnmarshalSealed(encodedSealed) }},
	} {
		if got := testing.AllocsPerRun(100, c.run); got != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.want)
		}
	}
}

// allocFixture returns a two-attestor bundle with batched elements and a
// sealed proof of a two-attestation response.
func allocFixture() (*Bundle, *Sealed) {
	el := Element{
		CertPEM: make([]byte, 700), Metadata: make([]byte, 250), Signature: make([]byte, 72),
		BatchSize: 4, BatchIndex: 1, BatchPath: [][]byte{make([]byte, 32), make([]byte, 32)},
	}
	b := &Bundle{
		SourceNetwork: "tradelens", Result: make([]byte, 300), Nonce: make([]byte, 16),
		Elements: []Element{el, el}, QueryDigest: make([]byte, 32), PolicyDigest: make([]byte, 32), UnixNano: 1,
	}
	s := &Sealed{
		QueryDigest: make([]byte, 32), PolicyDigest: make([]byte, 32), UnixNano: 1,
		Attestors: []string{"seller-org/peer0", "carrier-org/peer0"}, Response: make([]byte, 2400),
	}
	return b, s
}

// TestProofDecodersOwnTheirOutput pins each proof decoder's ownership
// contract. A sealed proof's input is ledger-held bytes its caller goes on
// owning, so UnmarshalSealed shares no byte with it: after every input byte
// is overwritten the decoded proof still re-encodes to the original. A
// bundle's input is a transaction argument nobody writes, so
// UnmarshalBundle decodes it in place: its bundle re-encodes to exactly
// that input (TestBundleMarshalAllocations pins that it copies nothing).
// What a committer keeps of a bundle passes through PutState's copy, which
// syscc's TestValueIsolationValidatedProofResult holds.
func TestProofDecodersOwnTheirOutput(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	b, s := allocFixture()
	for i := range b.Elements {
		r.Read(b.Elements[i].CertPEM)
		r.Read(b.Elements[i].BatchPath[0])
	}
	r.Read(b.Result)
	r.Read(s.Response)

	t.Run("bundle", func(t *testing.T) {
		input := b.Marshal()
		got, err := UnmarshalBundle(input)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(got.Marshal(), input) {
			t.Fatal("the decoded bundle does not re-encode to its input")
		}
		if !bytes.Equal(got.Result, b.Result) {
			t.Fatal("decoded Result differs from the encoded one")
		}
	})

	t.Run("sealed", func(t *testing.T) {
		encoded := s.Marshal()
		input := bytes.Clone(encoded)
		got, err := UnmarshalSealed(input)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		for i := range input {
			input[i] ^= 0xFF
		}
		if !bytes.Equal(got.Marshal(), encoded) {
			t.Fatal("writing the decode input changed the decoded value")
		}
	})
}
