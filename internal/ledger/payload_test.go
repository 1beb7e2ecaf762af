package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/statedb"
	"repro/internal/wire"
)

// nestedPayload encodes the signed payload with nested wire.Encoders, one
// intermediate encoding per embedded message. It is an independent oracle
// for the walk: the same format, written by the general-purpose codec.
func nestedPayload(tx *Transaction) []byte {
	rw := wire.NewEncoder(0)
	for _, r := range tx.RWSet.Reads {
		re := wire.NewEncoder(0)
		re.String(1, r.Key)
		re.Uint(2, r.Version.BlockNum)
		re.Uint(3, r.Version.TxNum)
		re.Bool(4, r.Exists)
		re.String(5, r.Namespace)
		rw.Message(1, re.Bytes())
	}
	for _, w := range tx.RWSet.Writes {
		we := wire.NewEncoder(0)
		we.String(1, w.Key)
		we.BytesField(2, w.Value)
		we.Bool(3, w.IsDelete)
		we.String(4, w.Namespace)
		rw.Message(2, we.Bytes())
	}
	e := wire.NewEncoder(0)
	e.String(1, tx.ID)
	e.String(2, tx.Chaincode)
	e.String(3, tx.Function)
	for _, a := range tx.Args {
		e.Message(4, a)
	}
	e.BytesField(5, tx.CreatorCert)
	e.BytesField(6, rw.Bytes())
	e.BytesField(7, tx.Response)
	if tx.Event != nil {
		ev := wire.NewEncoder(0)
		ev.String(1, tx.Event.Chaincode)
		ev.String(2, tx.Event.Name)
		ev.BytesField(3, tx.Event.Payload)
		e.Message(8, ev.Bytes())
	}
	e.String(9, tx.InteropKey)
	return e.Bytes()
}

// payloadMismatch reports what, if anything, the walk gets wrong for tx:
// SignedPayload must fill its one buffer exactly and match the nested
// encoding, and Digest must equal SHA-256 of SignedPayload.
func payloadMismatch(tx *Transaction) string {
	p := tx.SignedPayload()
	if len(p) != cap(p) {
		return fmt.Sprintf("SignedPayload len %d, cap %d", len(p), cap(p))
	}
	if !bytes.Equal(p, nestedPayload(tx)) {
		return "SignedPayload differs from the nested encoding"
	}
	if want := sha256.Sum256(p); !bytes.Equal(tx.Digest(), want[:]) {
		return "Digest differs from sha256(SignedPayload)"
	}
	return ""
}

// digestScratch is the size of the scratch buffer a hashing walk stages
// bytes in (see wire.Hashing).
const digestScratch = 256

// payloadLengths are field lengths where the encoding changes shape: the
// length varint grows at 128 and 16384, and the digest's scratch buffer
// fills at digestScratch.
var payloadLengths = []int{0, 1, 127, 128, digestScratch - 1, digestScratch, digestScratch + 1, 16383, 16384}

func randLen(r *rand.Rand) int {
	if r.Intn(3) == 0 {
		return payloadLengths[r.Intn(len(payloadLengths))]
	}
	return r.Intn(40)
}

func randBytes(r *rand.Rand) []byte {
	b := make([]byte, randLen(r))
	r.Read(b)
	return b
}

func randString(r *rand.Rand) string { return string(randBytes(r)) }

func randUint(r *rand.Rand) uint64 {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return []uint64{1, 127, 128, 16383, 16384, math.MaxUint64}[r.Intn(6)]
	default:
		return r.Uint64() >> r.Intn(64)
	}
}

// randTransaction fills every signed field, and some unsigned ones, with
// values at the encoding's edges: nil and empty events, empty arguments,
// zero versions, and lengths around the varint and scratch boundaries.
func randTransaction(r *rand.Rand) *Transaction {
	tx := &Transaction{
		ID:          randString(r),
		Chaincode:   randString(r),
		Function:    randString(r),
		CreatorCert: randBytes(r),
		Response:    randBytes(r),
		InteropKey:  randString(r),
		UnixNano:    randUint(r),
		ProofBundle: randBytes(r),
	}
	for i := r.Intn(4); i > 0; i-- {
		tx.Args = append(tx.Args, randBytes(r))
	}
	for i := r.Intn(3); i > 0; i-- {
		tx.RWSet.Reads = append(tx.RWSet.Reads, KVRead{
			Namespace: randString(r), Key: randString(r),
			Version: statedb.Version{BlockNum: randUint(r), TxNum: randUint(r)},
			Exists:  r.Intn(2) == 0,
		})
	}
	for i := r.Intn(3); i > 0; i-- {
		tx.RWSet.Writes = append(tx.RWSet.Writes, KVWrite{
			Namespace: randString(r), Key: randString(r), Value: randBytes(r), IsDelete: r.Intn(2) == 0,
		})
	}
	switch r.Intn(3) {
	case 0:
		tx.Event = &ChaincodeEvent{}
	case 1:
		tx.Event = &ChaincodeEvent{Chaincode: randString(r), Name: randString(r), Payload: randBytes(r), UnixNano: randUint(r)}
	}
	return tx
}

func TestDigestMatchesSignedPayload(t *testing.T) {
	prop := func(tx *Transaction) bool {
		if msg := payloadMismatch(tx); msg != "" {
			t.Log(msg)
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(29)),
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(randTransaction(r))
		},
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDigestStreamsIntoBlockHash holds the block hash to its definition:
// SHA-256 over the big-endian block number, the previous hash and each
// transaction digest in order.
func TestDigestStreamsIntoBlockHash(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		b := &Block{Number: randUint(r), PrevHash: randBytes(r)}
		for n := r.Intn(4); n > 0; n-- {
			b.Transactions = append(b.Transactions, randTransaction(r))
		}
		h := sha256.New()
		h.Write(binary.BigEndian.AppendUint64(nil, b.Number))
		h.Write(b.PrevHash)
		for _, tx := range b.Transactions {
			h.Write(tx.Digest())
		}
		if got := b.ComputeHash(); !bytes.Equal(got, h.Sum(nil)) {
			t.Fatalf("block %d: ComputeHash %x, want %x", i, got, h.Sum(nil))
		}
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestDigestAllocationsIndependentOfPayloadSize is the tripwire for the
// streamed digest: hashing a transfer-sized argument must cost no more
// allocations than hashing a tiny one, Digest and ComputeHash allocate only
// what they return (their digesters are pooled), and SignedPayload builds
// its bytes in exactly one.
func TestDigestAllocationsIndependentOfPayloadSize(t *testing.T) {
	withArg := func(n int) *Transaction {
		tx := txWith("tx", KVWrite{Namespace: "cc", Key: "k", Value: []byte("v")})
		tx.Args = [][]byte{make([]byte, n)}
		return tx
	}
	small, large := withArg(8), withArg(64<<10)
	if n := testing.AllocsPerRun(50, func() { _ = large.SignedPayload() }); n != 1 {
		t.Fatalf("SignedPayload allocs = %v, want 1", n)
	}
	if raceEnabled {
		t.Skip("the pooled digesters' counts do not hold under the race detector")
	}
	smallAllocs := testing.AllocsPerRun(50, func() { _ = small.Digest() })
	largeAllocs := testing.AllocsPerRun(50, func() { _ = large.Digest() })
	if largeAllocs > smallAllocs || largeAllocs > 1 {
		t.Fatalf("Digest allocs: %v with a 64 KiB argument, %v with 8 bytes; want equal and <= 1", largeAllocs, smallAllocs)
	}
	one := &Block{Number: 1, Transactions: []*Transaction{small}}
	many := &Block{Number: 1, Transactions: []*Transaction{large, large, large, large, small, small, small, small}}
	oneAllocs := testing.AllocsPerRun(50, func() { _ = one.ComputeHash() })
	if n := testing.AllocsPerRun(50, func() { _ = many.ComputeHash() }); n > oneAllocs || oneAllocs > 1 {
		t.Fatalf("ComputeHash allocs: %v for 8 transactions, %v for one; want equal and <= 1", n, oneAllocs)
	}
}

// FuzzTransactionDigest holds the walk to the nested encoding and Digest to
// SHA-256 of SignedPayload over fuzzed field bytes. flags selects the
// presence-encoded parts: bit 0 an event, bit 1 an empty event instead,
// bit 2 a trailing empty argument, bit 3 Exists, bit 4 IsDelete.
func FuzzTransactionDigest(f *testing.F) {
	v := vectorTransaction()
	f.Add(v.ID, v.Args[0], v.RWSet.Reads[0].Key, v.RWSet.Writes[0].Value, v.Response, uint64(4), uint8(1|8))
	f.Add("", []byte{}, "", []byte{}, []byte{}, uint64(0), uint8(0))
	f.Add("", []byte{}, "", []byte{}, []byte{}, uint64(0), uint8(2|4))
	// Seeds stay small: the fuzzer minimises every new input it finds,
	// which takes seconds for inputs of a few hundred bytes.
	// TestDigestMatchesSignedPayload covers the scratch and 16 KiB
	// boundaries.
	f.Add(string(make([]byte, 127)), make([]byte, 128), "k", []byte("v"), []byte{}, uint64(math.MaxUint64), uint8(31))
	f.Fuzz(func(t *testing.T, id string, arg []byte, key string, value, response []byte, version uint64, flags uint8) {
		tx := &Transaction{
			ID: id, Chaincode: key, Function: id, Args: [][]byte{arg}, CreatorCert: value,
			RWSet: RWSet{
				Reads:  []KVRead{{Namespace: id, Key: key, Version: statedb.Version{BlockNum: version, TxNum: version >> 7}, Exists: flags&8 != 0}},
				Writes: []KVWrite{{Namespace: key, Key: id, Value: value, IsDelete: flags&16 != 0}},
			},
			Response:   response,
			InteropKey: key,
		}
		switch {
		case flags&1 != 0:
			tx.Event = &ChaincodeEvent{Chaincode: key, Name: id, Payload: arg}
		case flags&2 != 0:
			tx.Event = &ChaincodeEvent{}
		}
		if flags&4 != 0 {
			tx.Args = append(tx.Args, nil)
		}
		if msg := payloadMismatch(tx); msg != "" {
			t.Fatal(msg)
		}
	})
}
