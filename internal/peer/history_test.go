package peer

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ledger"
)

func commitOne(t *testing.T, p *Peer, num uint64, fn string, args ...string) *ledger.Transaction {
	t.Helper()
	proposal := inv(fn, args...)
	proposal.TxID = "tx-" + args[0] + "-" + string(rune('0'+num))
	resp, err := p.Endorse(proposal)
	if err != nil {
		t.Fatalf("Endorse: %v", err)
	}
	tx, err := AssembleTransaction(proposal, []*ProposalResponse{resp})
	if err != nil {
		t.Fatalf("AssembleTransaction: %v", err)
	}
	block := &ledger.Block{Number: num, PrevHash: p.Blocks().TipHash(),
		Transactions: []*ledger.Transaction{tx}}
	block.Hash = block.ComputeHash()
	if err := p.CommitBlock(block); err != nil {
		t.Fatalf("CommitBlock: %v", err)
	}
	return tx
}

func TestKeyHistoryRecordsChanges(t *testing.T) {
	p, _ := newPeerFixture(t, "'org-a'")
	commitOne(t, p, 0, "put", "k", "v1")
	commitOne(t, p, 1, "put", "k", "v2")
	commitOne(t, p, 2, "del", "k")

	hist := p.KeyHistory("kv", "k")
	if len(hist) != 3 {
		t.Fatalf("history = %d entries", len(hist))
	}
	if !bytes.Equal(hist[0].Value, []byte("v1")) || hist[0].BlockNum != 0 {
		t.Fatalf("hist[0] = %+v", hist[0])
	}
	if !bytes.Equal(hist[1].Value, []byte("v2")) || hist[1].BlockNum != 1 {
		t.Fatalf("hist[1] = %+v", hist[1])
	}
	if !hist[2].IsDelete {
		t.Fatalf("hist[2] = %+v", hist[2])
	}
}

func TestKeyHistorySkipsInvalidTxs(t *testing.T) {
	p, _ := newPeerFixture(t, "'org-a'")
	// An unendorsed transaction fails validation; its writes must not
	// appear in the history.
	tx := &ledger.Transaction{
		ID: "tx-bad", Chaincode: "kv", Function: "put",
		RWSet: ledger.RWSet{Writes: []ledger.KVWrite{{Key: "k", Value: []byte("bad")}}},
	}
	block := &ledger.Block{Number: 0, Transactions: []*ledger.Transaction{tx}}
	block.Hash = block.ComputeHash()
	if err := p.CommitBlock(block); err != nil {
		t.Fatalf("CommitBlock: %v", err)
	}
	if got := p.KeyHistory("kv", "k"); len(got) != 0 {
		t.Fatalf("invalid tx recorded in history: %+v", got)
	}
}

func TestKeyHistoryEmptyAndIsolated(t *testing.T) {
	p, _ := newPeerFixture(t, "'org-a'")
	if got := p.KeyHistory("kv", "never-written"); len(got) != 0 {
		t.Fatalf("phantom history: %+v", got)
	}
	commitOne(t, p, 0, "put", "k", "v1")
	hist := p.KeyHistory("kv", "k")
	hist[0].Value[0] = 'X' // mutating the copy must not affect the index
	hist2 := p.KeyHistory("kv", "k")
	if hist2[0].Value[0] == 'X' {
		t.Fatal("history exposes internal buffers")
	}
}

// endorsedTx returns the transaction of one endorsed proposal, unordered.
func endorsedTx(t *testing.T, p *Peer, txID, fn string, args ...string) *ledger.Transaction {
	t.Helper()
	proposal := inv(fn, args...)
	proposal.TxID = txID
	resp, err := p.Endorse(proposal)
	if err != nil {
		t.Fatalf("Endorse: %v", err)
	}
	tx, err := AssembleTransaction(proposal, []*ProposalResponse{resp})
	if err != nil {
		t.Fatalf("AssembleTransaction: %v", err)
	}
	return tx
}

// TestKeyHistoryReadsBlocks: the history is read from the committed
// blocks. Two writes of a key in one block are two changes in transaction
// order, a delete is a change, an invalid transaction's write is none, and
// a reader running beside commits sees each committed block whole, in
// order, and values that are its own.
func TestKeyHistoryReadsBlocks(t *testing.T) {
	p, _ := newPeerFixture(t, "'org-a'")
	commit := func(txs ...*ledger.Transaction) {
		t.Helper()
		block := &ledger.Block{Number: p.Blocks().Height(), PrevHash: p.Blocks().TipHash(), Transactions: txs}
		block.Hash = block.ComputeHash()
		if err := p.CommitBlock(block); err != nil {
			t.Fatalf("CommitBlock: %v", err)
		}
	}
	unendorsed := &ledger.Transaction{
		ID: "tx-bad", Chaincode: "kv", Function: "put",
		RWSet: ledger.RWSet{Writes: []ledger.KVWrite{{Namespace: "kv", Key: "k", Value: []byte("bad")}}},
	}
	commit(endorsedTx(t, p, "tx-a", "put", "k", "v1"), endorsedTx(t, p, "tx-b", "put", "k", "v2"))
	commit(unendorsed, endorsedTx(t, p, "tx-c", "del", "k"))

	type change struct {
		txID         string
		block, txNum uint64
		value        string
		isDelete     bool
	}
	want := []change{{"tx-a", 0, 0, "v1", false}, {"tx-b", 0, 1, "v2", false}, {"tx-c", 1, 1, "", true}}
	const later = 32
	for i := range later {
		want = append(want, change{fmt.Sprintf("tx-%d", i), uint64(2 + i), 0, fmt.Sprintf("w%d", i), false})
	}
	// check reports whether hist is a prefix of want that ends at a block
	// boundary.
	check := func(hist []KeyChange) string {
		if len(hist) > len(want) {
			return fmt.Sprintf("%d changes, want at most %d", len(hist), len(want))
		}
		for i, c := range hist {
			got := change{c.TxID, c.BlockNum, c.TxNum, string(c.Value), c.IsDelete}
			if got != want[i] {
				return fmt.Sprintf("change %d = %+v, want %+v", i, got, want[i])
			}
		}
		if n := len(hist); n == 1 {
			return "block 0 seen in part"
		}
		return ""
	}
	if msg := check(p.KeyHistory("kv", "k")); msg != "" {
		t.Fatal(msg)
	}

	done := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		seen := 0
		for {
			select {
			case <-done:
				return
			default:
			}
			hist := p.KeyHistory("kv", "k")
			if msg := check(hist); msg != "" {
				t.Error(msg)
				return
			}
			if len(hist) < seen {
				t.Errorf("history shrank from %d to %d changes", seen, len(hist))
				return
			}
			seen = len(hist)
			if len(hist) > 0 {
				hist[0].Value = append(hist[0].Value[:0], 'X') // the reader's own copy
			}
		}
	}()
	for i := range later {
		commit(endorsedTx(t, p, fmt.Sprintf("tx-%d", i), "put", "k", fmt.Sprintf("w%d", i)))
	}
	close(done)
	<-readerDone
	if hist := p.KeyHistory("kv", "k"); len(hist) != len(want) {
		t.Fatalf("history = %d changes, want %d", len(hist), len(want))
	} else if msg := check(hist); msg != "" {
		t.Fatal(msg)
	}
}
