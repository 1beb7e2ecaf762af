package peer

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/internal/chaincode"
	"repro/internal/cryptoutil"
	"repro/internal/endorsement"
	"repro/internal/ledger"
	"repro/internal/msp"
	"repro/internal/trace"
)

// fixedProviders supplies a static verifier and a single policy for unit
// tests, standing in for the network object.
type fixedProviders struct {
	verifier *msp.Verifier
	policy   *endorsement.Policy
}

func (f *fixedProviders) Verifier() *msp.Verifier              { return f.verifier }
func (f *fixedProviders) PolicyFor(string) *endorsement.Policy { return f.policy }

func newPeerFixture(t *testing.T, policyExpr string) (*Peer, *msp.CA) {
	t.Helper()
	ca, err := msp.NewCA("org-a")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	id, err := ca.Issue("org-a-peer0", msp.RolePeer)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	verifier, err := msp.NewVerifier(map[string][]byte{"org-a": ca.RootCertPEM()})
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	reg := chaincode.NewRegistry()
	reg.Register("kv", chaincode.Func(func(stub chaincode.Stub) ([]byte, error) {
		switch stub.Function() {
		case "put":
			return nil, stub.PutState(string(stub.Args()[0]), stub.Args()[1])
		case "get":
			return stub.GetState(string(stub.Args()[0]))
		case "del":
			return nil, stub.DelState(string(stub.Args()[0]))
		default:
			return nil, errors.New("unknown")
		}
	}))
	providers := &fixedProviders{verifier: verifier, policy: endorsement.MustParse(policyExpr)}
	return New(id, reg, providers, providers), ca
}

func inv(fn string, args ...string) chaincode.Invocation {
	byteArgs := make([][]byte, len(args))
	for i, a := range args {
		byteArgs[i] = []byte(a)
	}
	return chaincode.Invocation{
		TxID: "tx-1", Chaincode: "kv", Function: fn, Args: byteArgs,
		Timestamp: time.Unix(1700000000, 0),
	}
}

func TestEndorseProducesValidSignature(t *testing.T) {
	p, _ := newPeerFixture(t, "'org-a'")
	resp, err := p.Endorse(inv("put", "k", "v"))
	if err != nil {
		t.Fatalf("Endorse: %v", err)
	}
	if resp.Endorsement.PeerName != "org-a-peer0" || resp.Endorsement.OrgID != "org-a" {
		t.Fatalf("endorsement = %+v", resp.Endorsement)
	}
	if len(resp.RWSet.Writes) != 1 {
		t.Fatalf("writes = %+v", resp.RWSet.Writes)
	}
}

// TestEndorsementSignaturesInteroperate: endorsers sign the payload digest
// and committers verify against it, which must leave the signature format
// what it was when both sides signed and verified the payload bytes.
func TestEndorsementSignaturesInteroperate(t *testing.T) {
	p, _ := newPeerFixture(t, "'org-a'")
	proposal := inv("put", "k", "v")
	resp, err := p.Endorse(proposal)
	if err != nil {
		t.Fatalf("Endorse: %v", err)
	}
	tx, err := AssembleTransaction(proposal, []*ProposalResponse{resp})
	if err != nil {
		t.Fatalf("AssembleTransaction: %v", err)
	}
	if err := cryptoutil.VerifyDigest(&p.Identity().Key.PublicKey, cryptoutil.Digest(tx.SignedPayload()), resp.Endorsement.Signature); err != nil {
		t.Fatalf("Endorse signature does not verify over SignedPayload: %v", err)
	}

	signed := BuildTransaction(proposal, &chaincode.SimResult{RWSet: resp.RWSet})
	sig, err := cryptoutil.SignDigest(p.Identity().Key, cryptoutil.Digest(signed.SignedPayload()))
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	signed.Endorsements = []ledger.Endorsement{{
		PeerName: p.Name(), OrgID: p.OrgID(), CertPEM: p.Identity().CertPEM(), Signature: sig,
	}}
	if code := p.validateEndorsements(&signed, p.verifiers.Verifier()); code != ledger.Valid {
		t.Fatalf("signature over SignedPayload validates as %v", code)
	}
	signed.Response = []byte("forged")
	if code := p.validateEndorsements(&signed, p.verifiers.Verifier()); code != ledger.BadSignature {
		t.Fatalf("forged response validates as %v", code)
	}
}

func TestEndorseSimulationDoesNotCommit(t *testing.T) {
	p, _ := newPeerFixture(t, "'org-a'")
	if _, err := p.Endorse(inv("put", "k", "v")); err != nil {
		t.Fatalf("Endorse: %v", err)
	}
	if _, ok := p.State().Get("kv", "k"); ok {
		t.Fatal("endorsement mutated committed state")
	}
}

// TestCommittedTransactionKeepsNoInvocation: a committed transaction's
// read set is an array of its own, so the ledger does not keep the
// simulation frame alive, nor the invocation in it: the trace recorder the
// proposal carried is collected once the proposal is dropped.
func TestCommittedTransactionKeepsNoInvocation(t *testing.T) {
	p, _ := newPeerFixture(t, "'org-a'")
	commit(t, p, 0, endorseTx(t, p, inv("put", "k", "v")))
	proposal := inv("get", "k")
	proposal.TxID = "tx-2"
	proposal.Trace = trace.New("trace-1", "relay-a")
	recorder := weak.Make(proposal.Trace)
	tx := endorseTx(t, p, proposal)
	proposal.Trace = nil
	commit(t, p, 1, tx)
	if len(tx.RWSet.Reads) != 1 || tx.Validation != ledger.Valid {
		t.Fatalf("committed tx: reads %+v, validation %v", tx.RWSet.Reads, tx.Validation)
	}
	runtime.GC()
	if recorder.Value() != nil {
		t.Fatal("the ledger keeps the endorsed invocation's trace recorder alive")
	}
	runtime.KeepAlive(p)
}

func TestCommitBlockAppliesValidTx(t *testing.T) {
	p, _ := newPeerFixture(t, "'org-a'")
	proposal := inv("put", "k", "v")
	resp, _ := p.Endorse(proposal)
	tx, err := AssembleTransaction(proposal, []*ProposalResponse{resp})
	if err != nil {
		t.Fatalf("AssembleTransaction: %v", err)
	}
	block := &ledger.Block{Number: 0, Transactions: []*ledger.Transaction{tx}}
	block.Hash = block.ComputeHash()
	if err := p.CommitBlock(block); err != nil {
		t.Fatalf("CommitBlock: %v", err)
	}
	if tx.Validation != ledger.Valid {
		t.Fatalf("validation = %v", tx.Validation)
	}
	vv, ok := p.State().Get("kv", "k")
	if !ok || !bytes.Equal(vv.Value, []byte("v")) {
		t.Fatalf("state = %+v, %v", vv, ok)
	}
	if p.Blocks().Height() != 1 {
		t.Fatalf("height = %d", p.Blocks().Height())
	}
}

func TestCommitRejectsUnendorsedTx(t *testing.T) {
	p, _ := newPeerFixture(t, "'org-a'")
	tx := &ledger.Transaction{
		ID: "tx-naked", Chaincode: "kv", Function: "put",
		RWSet: ledger.RWSet{Writes: []ledger.KVWrite{{Key: "k", Value: []byte("v")}}},
	}
	block := &ledger.Block{Number: 0, Transactions: []*ledger.Transaction{tx}}
	block.Hash = block.ComputeHash()
	if err := p.CommitBlock(block); err != nil {
		t.Fatalf("CommitBlock: %v", err)
	}
	if tx.Validation != ledger.EndorsementFailure {
		t.Fatalf("validation = %v", tx.Validation)
	}
	if _, ok := p.State().Get("kv", "k"); ok {
		t.Fatal("unendorsed write applied")
	}
}

func TestCommitRejectsForeignEndorser(t *testing.T) {
	p, _ := newPeerFixture(t, "'org-a'")
	// A different CA with the same org name: signature verifies against the
	// cert, but the cert does not chain to the recorded root.
	rogueCA, _ := msp.NewCA("org-a")
	rogueID, _ := rogueCA.Issue("org-a-peer0", msp.RolePeer)

	proposal := inv("put", "k", "v")
	res := &chaincode.SimResult{RWSet: ledger.RWSet{Writes: []ledger.KVWrite{{Key: "k", Value: []byte("v")}}}}
	tx := BuildTransaction(proposal, res)
	sig, _ := cryptoutil.SignDigest(rogueID.Key, cryptoutil.Digest(tx.SignedPayload()))
	tx.Endorsements = []ledger.Endorsement{{
		PeerName: "org-a-peer0", OrgID: "org-a", CertPEM: rogueID.CertPEM(), Signature: sig,
	}}
	block := &ledger.Block{Number: 0, Transactions: []*ledger.Transaction{&tx}}
	block.Hash = block.ComputeHash()
	if err := p.CommitBlock(block); err != nil {
		t.Fatalf("CommitBlock: %v", err)
	}
	if tx.Validation != ledger.BadSignature {
		t.Fatalf("validation = %v", tx.Validation)
	}
}

func TestCommitRejectsClientEndorser(t *testing.T) {
	p, ca := newPeerFixture(t, "'org-a.peer'")
	clientID, _ := ca.Issue("sneaky-client", msp.RoleClient)

	proposal := inv("put", "k", "v")
	res := &chaincode.SimResult{RWSet: ledger.RWSet{Writes: []ledger.KVWrite{{Key: "k", Value: []byte("v")}}}}
	tx := BuildTransaction(proposal, res)
	sig, _ := cryptoutil.SignDigest(clientID.Key, cryptoutil.Digest(tx.SignedPayload()))
	tx.Endorsements = []ledger.Endorsement{{
		PeerName: "sneaky-client", OrgID: "org-a", CertPEM: clientID.CertPEM(), Signature: sig,
	}}
	block := &ledger.Block{Number: 0, Transactions: []*ledger.Transaction{&tx}}
	block.Hash = block.ComputeHash()
	if err := p.CommitBlock(block); err != nil {
		t.Fatalf("CommitBlock: %v", err)
	}
	// Signature is fine but the peer-only policy is unsatisfied.
	if tx.Validation != ledger.EndorsementFailure {
		t.Fatalf("validation = %v", tx.Validation)
	}
}

func TestIntraBlockMVCCConflict(t *testing.T) {
	p, _ := newPeerFixture(t, "'org-a'")

	// Seed a key.
	seed := inv("put", "k", "v0")
	seed.TxID = "tx-seed"
	resp0, _ := p.Endorse(seed)
	tx0, _ := AssembleTransaction(seed, []*ProposalResponse{resp0})
	b0 := &ledger.Block{Number: 0, Transactions: []*ledger.Transaction{tx0}}
	b0.Hash = b0.ComputeHash()
	_ = p.CommitBlock(b0)

	// tx1 writes k; tx2 read k at the version preceding tx1's write. Both
	// land in the same block, so tx2's MVCC check must fail against tx1's
	// freshly applied write.
	write := inv("put", "k", "v1")
	write.TxID = "tx-write"
	respW, _ := p.Endorse(write)
	txW, _ := AssembleTransaction(write, []*ProposalResponse{respW})

	read := inv("get", "k")
	read.TxID = "tx-read"
	respR, _ := p.Endorse(read)
	txR, _ := AssembleTransaction(read, []*ProposalResponse{respR})

	b1 := &ledger.Block{Number: 1, PrevHash: p.Blocks().TipHash(),
		Transactions: []*ledger.Transaction{txW, txR}}
	b1.Hash = b1.ComputeHash()
	if err := p.CommitBlock(b1); err != nil {
		t.Fatalf("CommitBlock: %v", err)
	}
	if txW.Validation != ledger.Valid {
		t.Fatalf("write tx = %v", txW.Validation)
	}
	// The read tx observed version (0,0); tx-write moved it to (1,0) within
	// the same block, so MVCC must invalidate it.
	if txR.Validation != ledger.MVCCConflict {
		t.Fatalf("read tx = %v, want mvcc-conflict", txR.Validation)
	}
}

func TestAssembleRejectsDivergentResponses(t *testing.T) {
	p, _ := newPeerFixture(t, "'org-a'")
	proposal := inv("put", "k", "v")
	resp1, _ := p.Endorse(proposal)
	resp2, _ := p.Endorse(proposal)
	// Corrupt the second response.
	resp2.Response = []byte("divergent")
	if _, err := AssembleTransaction(proposal, []*ProposalResponse{resp1, resp2}); !errors.Is(err, ErrProposalMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestAssembleEmptyResponses(t *testing.T) {
	if _, err := AssembleTransaction(inv("put", "k", "v"), nil); err == nil {
		t.Fatal("empty responses accepted")
	}
}

func TestQueryReadOnly(t *testing.T) {
	p, _ := newPeerFixture(t, "'org-a'")
	// put through commit first
	proposal := inv("put", "k", "v")
	resp, _ := p.Endorse(proposal)
	tx, _ := AssembleTransaction(proposal, []*ProposalResponse{resp})
	b := &ledger.Block{Number: 0, Transactions: []*ledger.Transaction{tx}}
	b.Hash = b.ComputeHash()
	_ = p.CommitBlock(b)

	got, err := p.Query(inv("get", "k"))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !bytes.Equal(got, []byte("v")) {
		t.Fatalf("query = %q", got)
	}
	// Writes in a query must fail.
	if _, err := p.Query(inv("put", "k2", "v2")); err == nil {
		t.Fatal("query performed a write")
	}
}

func TestPeerAccessors(t *testing.T) {
	p, _ := newPeerFixture(t, "'org-a'")
	if p.Name() != "org-a-peer0" || p.OrgID() != "org-a" {
		t.Fatalf("accessors: %s %s", p.Name(), p.OrgID())
	}
	if p.Identity() == nil || p.State() == nil || p.Blocks() == nil {
		t.Fatal("nil accessors")
	}
	if _, ok := p.State().Get("kv", "nothing"); ok {
		t.Fatal("empty state returned a value")
	}
}

// TestSignedRecordBounded: proposals endorsed and never ordered cannot grow
// a peer's record of its own signatures past maxSigned. A later block then
// gets the verdicts of a twin that verifies every signature: a transaction
// whose entry the flush dropped, one whose entry survived, and a corrupted
// copy of the peer's own signature. Checking the block takes the two
// surviving entries.
func TestSignedRecordBounded(t *testing.T) {
	p, ca := newPeerFixture(t, "'org-a'")
	twinID, err := ca.Issue("org-a-twin", msp.RolePeer)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	twin := New(twinID, p.registry, p.verifiers, p.policies)
	put := func(txID string) chaincode.Invocation {
		proposal := inv("put", "k", txID)
		proposal.TxID = txID
		return proposal
	}
	flushed := endorseTx(t, p, put("tx-flushed"))
	for i := range maxSigned + 1 {
		if _, err := p.Endorse(put(fmt.Sprintf("tx-unordered-%d", i))); err != nil {
			t.Fatalf("Endorse: %v", err)
		}
		if n := len(p.signed); n > maxSigned {
			t.Fatalf("record holds %d > %d entries after %d endorsements", n, maxSigned, i+2)
		}
	}
	if _, ok := p.signed[[cryptoutil.DigestSize]byte(flushed.Digest())]; ok {
		t.Fatal("the first entry survived more than maxSigned endorsements")
	}
	kept := endorseTx(t, p, put("tx-kept"))
	forged := endorseTx(t, p, put("tx-forged"))
	en := &forged.Endorsements[0]
	en.Signature = bytes.Clone(en.Signature)
	en.Signature[len(en.Signature)/2] ^= 0x40
	recorded := len(p.signed)

	txs := []*ledger.Transaction{flushed, kept, forged}
	copies := make([]*ledger.Transaction, len(txs))
	for i, tx := range txs {
		dup := *tx
		copies[i] = &dup
	}
	commit(t, p, 0, txs...)
	commit(t, twin, 0, copies...)
	for i, want := range []ledger.ValidationCode{ledger.Valid, ledger.Valid, ledger.BadSignature} {
		if got, twinGot := txs[i].Validation, copies[i].Validation; got != want || twinGot != want {
			t.Fatalf("%s: %v, twin %v, want %v", txs[i].ID, got, twinGot, want)
		}
	}
	if n := len(p.signed); n != recorded-2 {
		t.Fatalf("record holds %d entries after the block, want %d", n, recorded-2)
	}
}
