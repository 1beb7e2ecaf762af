package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func txWith(id string, writes ...KVWrite) *Transaction {
	return &Transaction{
		ID:        id,
		Chaincode: "cc",
		Function:  "fn",
		Args:      [][]byte{[]byte("a")},
		RWSet:     RWSet{Writes: writes},
	}
}

func TestSignedPayloadCoversMutations(t *testing.T) {
	base := func() *Transaction {
		return &Transaction{
			ID:        "tx1",
			Chaincode: "cc",
			Function:  "fn",
			Args:      [][]byte{[]byte("a")},
			Response:  []byte("resp"),
			RWSet: RWSet{
				Writes: []KVWrite{{Key: "k", Value: []byte("v")}},
			},
		}
	}
	orig, origDigest := base().SignedPayload(), base().Digest()

	mutations := map[string]func(*Transaction){
		"function":    func(tx *Transaction) { tx.Function = "other" },
		"args":        func(tx *Transaction) { tx.Args = [][]byte{[]byte("b")} },
		"empty arg":   func(tx *Transaction) { tx.Args = append(tx.Args, nil) },
		"response":    func(tx *Transaction) { tx.Response = []byte("forged") },
		"writes":      func(tx *Transaction) { tx.RWSet.Writes[0].Value = []byte("forged") },
		"zero read":   func(tx *Transaction) { tx.RWSet.Reads = []KVRead{{}} },
		"id":          func(tx *Transaction) { tx.ID = "tx2" },
		"creator":     func(tx *Transaction) { tx.CreatorCert = []byte("cert") },
		"interop key": func(tx *Transaction) { tx.InteropKey = "k" },
		"empty event": func(tx *Transaction) { tx.Event = &ChaincodeEvent{} },
		"event": func(tx *Transaction) {
			tx.Event = &ChaincodeEvent{Chaincode: "cc", Name: "e", Payload: []byte("p")}
		},
	}
	for name, mutate := range mutations {
		tx := base()
		mutate(tx)
		if bytes.Equal(orig, tx.SignedPayload()) {
			t.Fatalf("mutation %q does not change signed payload", name)
		}
		if bytes.Equal(origDigest, tx.Digest()) {
			t.Fatalf("mutation %q does not change the digest", name)
		}
	}
	// What the committer and the relay attach after endorsement must NOT
	// affect either.
	attached := map[string]func(*Transaction){
		"validation":   func(tx *Transaction) { tx.Validation = MVCCConflict },
		"proof bundle": func(tx *Transaction) { tx.ProofBundle = []byte("sealed") },
		"endorsements": func(tx *Transaction) {
			tx.Endorsements = []Endorsement{{PeerName: "p", OrgID: "o", CertPEM: []byte("c"), Signature: []byte("s")}}
		},
		"unix nano": func(tx *Transaction) { tx.UnixNano = 1_700_000_000_000_000_000 },
	}
	for name, attach := range attached {
		tx := base()
		attach(tx)
		if !bytes.Equal(orig, tx.SignedPayload()) {
			t.Fatalf("%s changes the signed payload", name)
		}
		if !bytes.Equal(origDigest, tx.Digest()) {
			t.Fatalf("%s changes the digest", name)
		}
	}
}

func TestBlockStoreAppendAndChain(t *testing.T) {
	s := NewBlockStore()
	if s.Height() != 0 || s.TipHash() != nil {
		t.Fatal("new store not empty")
	}
	b0 := &Block{Number: 0, Transactions: []*Transaction{txWith("t0")}}
	if err := s.Append(b0); err != nil {
		t.Fatalf("Append genesis: %v", err)
	}
	b1 := &Block{Number: 1, PrevHash: s.TipHash(), Transactions: []*Transaction{txWith("t1"), txWith("t2")}}
	if err := s.Append(b1); err != nil {
		t.Fatalf("Append block 1: %v", err)
	}
	if s.Height() != 2 {
		t.Fatalf("Height = %d", s.Height())
	}
	if err := s.VerifyChain(); err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
}

func TestBlockStoreRejectsBadLinkage(t *testing.T) {
	s := NewBlockStore()
	if err := s.Append(&Block{Number: 1}); !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("wrong first block number: %v", err)
	}
	if err := s.Append(&Block{Number: 0, PrevHash: []byte("junk")}); !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("genesis with prev hash: %v", err)
	}
	_ = s.Append(&Block{Number: 0})
	if err := s.Append(&Block{Number: 1, PrevHash: []byte("wrong")}); !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("bad prev hash: %v", err)
	}
}

func TestBlockStoreTxLookup(t *testing.T) {
	s := NewBlockStore()
	_ = s.Append(&Block{Number: 0, Transactions: []*Transaction{txWith("alpha"), txWith("beta")}})
	tx, err := s.TxByID("beta")
	if err != nil || tx.ID != "beta" {
		t.Fatalf("TxByID: %v, %v", tx, err)
	}
	if _, err := s.TxByID("gamma"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing tx: %v", err)
	}
	if _, err := s.Block(5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing block: %v", err)
	}
}

func TestVerifyChainDetectsTampering(t *testing.T) {
	s := NewBlockStore()
	_ = s.Append(&Block{Number: 0, Transactions: []*Transaction{txWith("t0")}})
	_ = s.Append(&Block{Number: 1, PrevHash: s.TipHash(), Transactions: []*Transaction{txWith("t1")}})

	// Tamper with a committed transaction's write set.
	b, _ := s.Block(1)
	b.Transactions[0].RWSet.Writes = []KVWrite{{Key: "evil", Value: []byte("x")}}
	if err := s.VerifyChain(); !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("tampering not detected: %v", err)
	}
}

func TestBlockHashDependsOnContents(t *testing.T) {
	b1 := &Block{Number: 0, Transactions: []*Transaction{txWith("a")}}
	b2 := &Block{Number: 0, Transactions: []*Transaction{txWith("b")}}
	if bytes.Equal(b1.ComputeHash(), b2.ComputeHash()) {
		t.Fatal("different blocks hash identically")
	}
}

func TestValidationCodeString(t *testing.T) {
	for code, want := range map[ValidationCode]string{
		Valid:               "valid",
		MVCCConflict:        "mvcc-conflict",
		EndorsementFailure:  "endorsement-failure",
		BadSignature:        "bad-signature",
		ValidationCode(250): "validation(250)",
	} {
		if code.String() != want {
			t.Fatalf("%d.String() = %q", int(code), code.String())
		}
	}
}

func TestManyBlocksChainIntact(t *testing.T) {
	s := NewBlockStore()
	for i := 0; i < 50; i++ {
		b := &Block{
			Number:       uint64(i),
			PrevHash:     s.TipHash(),
			Transactions: []*Transaction{txWith(fmt.Sprintf("tx-%d", i))},
		}
		if err := s.Append(b); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := s.VerifyChain(); err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
	if s.Height() != 50 {
		t.Fatalf("Height = %d", s.Height())
	}
}

func BenchmarkBlockAppend(b *testing.B) {
	s := NewBlockStore()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk := &Block{
			Number:       uint64(i),
			PrevHash:     s.TipHash(),
			Transactions: []*Transaction{txWith(fmt.Sprintf("tx-%d", i))},
		}
		if err := s.Append(blk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSignedPayload(b *testing.B) {
	tx := txWith("tx", KVWrite{Key: "k", Value: make([]byte, 512)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tx.SignedPayload()
	}
}

func BenchmarkDigest(b *testing.B) {
	tx := txWith("tx", KVWrite{Key: "k", Value: make([]byte, 512)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tx.Digest()
	}
}
