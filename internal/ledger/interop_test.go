package ledger

import "testing"

// appendBlock builds and appends a block with the given transactions,
// failing the test on chain errors.
func appendBlock(t *testing.T, s *BlockStore, num uint64, txs ...*Transaction) {
	t.Helper()
	b := &Block{Number: num, PrevHash: s.TipHash(), Transactions: txs}
	if err := s.Append(b); err != nil {
		t.Fatalf("Append block %d: %v", num, err)
	}
}

func TestTxByInteropKeyFindsValidCommit(t *testing.T) {
	s := NewBlockStore()
	tx := &Transaction{ID: "interop-tx-1", InteropKey: "net\x00cert\x00req-1", Response: []byte("ok"), Validation: Valid}
	appendBlock(t, s, 0, tx)

	got, err := s.TxByInteropKey("net\x00cert\x00req-1")
	if err != nil {
		t.Fatalf("TxByInteropKey: %v", err)
	}
	if got != tx {
		t.Fatalf("TxByInteropKey returned %+v", got)
	}
	if _, err := s.TxByInteropKey("net\x00cert\x00other"); err == nil {
		t.Fatal("lookup of unknown interop key succeeded")
	}
}

func TestInteropIndexSkipsInvalidTransactions(t *testing.T) {
	s := NewBlockStore()
	failed := &Transaction{ID: "interop-tx-1", InteropKey: "k1", Validation: MVCCConflict}
	appendBlock(t, s, 0, failed)
	if _, err := s.TxByInteropKey("k1"); err == nil {
		t.Fatal("invalid transaction indexed for replay")
	}
	if s.HasValidTx("interop-tx-1") {
		t.Fatal("HasValidTx true for an invalid commit")
	}

	// The retry of the failed attempt commits under the same identities.
	retried := &Transaction{ID: "interop-tx-1", InteropKey: "k1", Response: []byte("done"), Validation: Valid}
	appendBlock(t, s, 1, retried)
	got, err := s.TxByInteropKey("k1")
	if err != nil || got != retried {
		t.Fatalf("TxByInteropKey after retry = %+v, %v", got, err)
	}
	if !s.HasValidTx("interop-tx-1") {
		t.Fatal("HasValidTx false after the valid retry")
	}
	// The valid retry displaces the invalid attempt in the TxID index too:
	// lookups want the transaction whose effects are on the ledger.
	byID, err := s.TxByID("interop-tx-1")
	if err != nil || byID != retried {
		t.Fatalf("TxByID after retry = %+v, %v", byID, err)
	}
}

func TestDuplicateCommitDoesNotShadowOriginal(t *testing.T) {
	s := NewBlockStore()
	original := &Transaction{ID: "interop-tx-1", InteropKey: "k1", Response: []byte("first"), Validation: Valid}
	appendBlock(t, s, 0, original)

	// A second relay's copy of the same logical invoke, marked Duplicate by
	// the committer, lands in a later block. Neither index may move off the
	// original.
	dup := &Transaction{ID: "interop-tx-1", InteropKey: "k1", Response: []byte("second"), Validation: Duplicate}
	appendBlock(t, s, 1, dup)

	byID, err := s.TxByID("interop-tx-1")
	if err != nil || byID != original {
		t.Fatalf("TxByID = %+v, %v; want the original commit", byID, err)
	}
	byKey, err := s.TxByInteropKey("k1")
	if err != nil || byKey != original {
		t.Fatalf("TxByInteropKey = %+v, %v; want the original commit", byKey, err)
	}
	if !s.HasValidTx("interop-tx-1") {
		t.Fatal("HasValidTx false despite the valid original")
	}
}

func TestInteropKeyInSignedPayload(t *testing.T) {
	plain := &Transaction{ID: "tx-1", Chaincode: "cc", Function: "fn"}
	keyed := &Transaction{ID: "tx-1", Chaincode: "cc", Function: "fn", InteropKey: "k1"}
	if string(plain.SignedPayload()) == string(keyed.SignedPayload()) {
		t.Fatal("InteropKey is not covered by the signed payload")
	}
	rebound := &Transaction{ID: "tx-1", Chaincode: "cc", Function: "fn", InteropKey: "k2"}
	if string(keyed.SignedPayload()) == string(rebound.SignedPayload()) {
		t.Fatal("re-binding the interop key does not change the signed payload")
	}
}

// TestProofBundleRidesTheCommittedTransaction pins the proof-carrying-
// commit contract at the ledger layer: the sealed proof attached before
// ordering is retrievable through the interop replay index, and it is
// deliberately outside the signed payload (the proof attests the committed
// response; attaching it after endorsement must not invalidate the
// endorsements).
func TestProofBundleRidesTheCommittedTransaction(t *testing.T) {
	s := NewBlockStore()
	tx := &Transaction{
		ID:         "interop-tx-7",
		InteropKey: "net\x00cert\x00req-7",
		Response:   []byte("committed"),
		Validation: Valid,
	}
	unsigned := tx.SignedPayload()
	tx.ProofBundle = []byte("sealed-proof-bytes")
	if string(tx.SignedPayload()) != string(unsigned) {
		t.Fatal("attaching the proof bundle changed the signed payload")
	}
	appendBlock(t, s, 0, tx)

	got, err := s.TxByInteropKey("net\x00cert\x00req-7")
	if err != nil {
		t.Fatalf("TxByInteropKey: %v", err)
	}
	if string(got.ProofBundle) != "sealed-proof-bytes" {
		t.Fatalf("replay index lost the bundle: %q", got.ProofBundle)
	}
}
