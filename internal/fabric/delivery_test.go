package fabric

import (
	"bytes"
	"encoding/asn1"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaincode"
	"repro/internal/ledger"
	"repro/internal/msp"
	"repro/internal/orderer"
	"repro/internal/peer"
	"repro/internal/statedb"
)

// newFourPeerNetwork is the shape of the paper's SWT network: two
// organizations of two peers each, every transaction endorsed by both.
func newFourPeerNetwork(t *testing.T) *Network {
	t.Helper()
	n := NewNetwork("four", orderer.Config{BatchSize: 1})
	for _, org := range []string{"org-a", "org-b"} {
		if _, err := n.AddOrg(org, 2); err != nil {
			t.Fatalf("AddOrg %s: %v", org, err)
		}
	}
	if err := n.Deploy("kv", kvChaincode, "AND('org-a','org-b')"); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if err := n.Deploy("rmw", rmwChaincode, "AND('org-a','org-b')"); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	return n
}

// rmwChaincode reads a key of kv's namespace and writes its own copy of it
// with a byte appended: a read set and a write set in two namespaces.
var rmwChaincode = chaincode.Func(func(stub chaincode.Stub) ([]byte, error) {
	key := stub.Args()[0]
	cur, err := stub.InvokeChaincode("kv", "get", [][]byte{key})
	if err != nil {
		return nil, err
	}
	return nil, stub.PutState(string(key), append(cur, '!'))
})

// endorsed endorses inv on the first peer of every organization and
// assembles the transaction, as a gateway does before ordering.
func endorsed(t *testing.T, n *Network, inv chaincode.Invocation) *ledger.Transaction {
	t.Helper()
	var responses []*peer.ProposalResponse
	for _, org := range n.OrgIDs() {
		peers, _ := n.PeersOf(org)
		resp, err := peers[0].Endorse(inv)
		if err != nil {
			t.Fatalf("Endorse on %s: %v", peers[0].Name(), err)
		}
		responses = append(responses, resp)
	}
	tx, err := peer.AssembleTransaction(inv, responses)
	if err != nil {
		t.Fatalf("AssembleTransaction: %v", err)
	}
	return tx
}

func kvInv(txID, fn string, args ...string) chaincode.Invocation {
	return chaincode.Invocation{
		TxID: txID, Chaincode: "kv", Function: fn, Args: bytesArgs(args),
		Timestamp: time.Unix(1700000000, 0),
	}
}

// dumpState flattens a peer's world state, version stamps included.
func dumpState(p *peer.Peer) string {
	var buf bytes.Buffer
	for _, ns := range p.State().Namespaces() {
		for _, kv := range p.State().Range(ns, "", "") {
			fmt.Fprintf(&buf, "%s/%s=%q@%d.%d\n", ns, kv.Key, kv.Value, kv.Version.BlockNum, kv.Version.TxNum)
		}
	}
	return buf.String()
}

// TestDeliveryEquivalentToPerPeerCommit sends random blocks of one to six
// transactions — contended keys, read-modify-writes across namespaces,
// replayed transaction IDs and interop keys, corrupted signatures —
// through commitBlock to four peers, and each block's independent copy to
// four twin peers that commit on their own (CommitBlock), one after
// another. Every twin must match its peer: verdicts, block hashes and the
// full world state with its version stamps.
func TestDeliveryEquivalentToPerPeerCommit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDeliverySchedule(t, seed, 16)
		})
	}
}

// newTwins gives each of the network's peers, in AllPeers order, a twin: a
// peer of the same organization under a fresh identity. A twin never
// endorses, so it verifies every endorsement signature in full.
func newTwins(t *testing.T, n *Network) []*peer.Peer {
	t.Helper()
	var twins []*peer.Peer
	for _, p := range n.AllPeers() {
		org, _ := n.Org(p.OrgID())
		id, err := org.CA.Issue(p.Name()+"-twin", msp.RolePeer)
		if err != nil {
			t.Fatalf("Issue: %v", err)
		}
		twins = append(twins, peer.New(id, n.registry, n, n))
	}
	return twins
}

// twinCopy is block's independent copy for twin, chained on the twin's own
// tip. Verdicts are recorded on the transactions, so it must be taken
// before the block is delivered.
func twinCopy(twin *peer.Peer, block *ledger.Block) *ledger.Block {
	c := &ledger.Block{Number: block.Number, PrevHash: twin.Blocks().TipHash()}
	for _, tx := range block.Transactions {
		dup := *tx
		c.Transactions = append(c.Transactions, &dup)
	}
	return c
}

func runDeliverySchedule(t *testing.T, seed int64, blocks int) {
	r := rand.New(rand.NewSource(seed))
	n := newFourPeerNetwork(t)
	peers := n.AllPeers()
	twins := newTwins(t, n)
	keys := []string{"k0", "k1", "k2"}
	var txIDs, interopKeys []string
	valid := 0
	for num := uint64(0); num < uint64(blocks); num++ {
		block := &ledger.Block{Number: num, PrevHash: peers[0].Blocks().TipHash()}
		for i, size := 0, 1+r.Intn(6); i < size; i++ {
			key := keys[r.Intn(len(keys))]
			id := fmt.Sprintf("tx-%d-%d", num, i)
			if len(txIDs) > 0 && r.Intn(8) == 0 {
				id = txIDs[r.Intn(len(txIDs))]
			}
			txIDs = append(txIDs, id)
			var inv chaincode.Invocation
			switch r.Intn(4) {
			case 0:
				inv = kvInv(id, "get", key)
			case 1:
				inv = kvInv(id, "del", key)
			case 2:
				inv = kvInv(id, "bump", key)
				inv.Chaincode = "rmw"
			default:
				inv = kvInv(id, "put", key, id)
			}
			if r.Intn(3) == 0 {
				if len(interopKeys) > 0 && r.Intn(2) == 0 {
					inv.InteropKey = interopKeys[r.Intn(len(interopKeys))]
				} else {
					inv.InteropKey = "ik-" + id
					interopKeys = append(interopKeys, inv.InteropKey)
				}
			}
			tx := endorsed(t, n, inv)
			if r.Intn(8) == 0 {
				e := &tx.Endorsements[r.Intn(len(tx.Endorsements))]
				e.Signature = bytes.Clone(e.Signature)
				e.Signature[len(e.Signature)/2] ^= 0x40
			}
			block.Transactions = append(block.Transactions, tx)
		}
		// Each twin gets its own copy: verdicts are recorded on the
		// transactions, and the twins must reach theirs independently.
		copies := make([]*ledger.Block, len(twins))
		for i, twin := range twins {
			copies[i] = twinCopy(twin, block)
		}
		if err := n.commitBlock(block); err != nil {
			t.Fatalf("block %d: commitBlock: %v", num, err)
		}
		for i, twin := range twins {
			if err := twin.CommitBlock(copies[i]); err != nil {
				t.Fatalf("block %d: %s CommitBlock: %v", num, twin.Name(), err)
			}
		}
		for j, tx := range block.Transactions {
			if tx.Validation == ledger.Valid {
				valid++
			}
			for i, twin := range twins {
				if got := copies[i].Transactions[j].Validation; got != tx.Validation {
					t.Fatalf("block %d tx %d (%s %s): delivered %v, %s alone %v", num, j, tx.ID, tx.Function, tx.Validation, twin.Name(), got)
				}
			}
		}
		for i, p := range peers {
			if got, want := p.Blocks().TipHash(), twins[i].Blocks().TipHash(); !bytes.Equal(got, want) {
				t.Fatalf("block %d: %s hash %x, twin %x", num, p.Name(), got, want)
			}
			if got, want := dumpState(p), dumpState(twins[i]); got != want {
				t.Fatalf("block %d: %s state diverged from its twin\n%s\nvs\n%s", num, p.Name(), got, want)
			}
		}
	}
	if valid == 0 || valid == len(txIDs) {
		t.Fatalf("%d of %d transactions valid; schedule exercises nothing", valid, len(txIDs))
	}
}

// TestDeliveryRefusesDivergentVerdict: the first peer records a block's
// verdicts. A later peer whose MVCC check disagrees, because its state
// diverged, fails delivery with an error naming it, the block and the
// transaction, applies nothing, and leaves the recorded verdict as it was.
func TestDeliveryRefusesDivergentVerdict(t *testing.T) {
	n := newFourPeerNetwork(t)
	peers := n.AllPeers()
	seed := &ledger.Block{Number: 0, Transactions: []*ledger.Transaction{endorsed(t, n, kvInv("tx-seed", "put", "k", "v"))}}
	if err := n.commitBlock(seed); err != nil {
		t.Fatalf("seed block: %v", err)
	}
	bump := kvInv("tx-bump", "bump", "k")
	bump.Chaincode = "rmw"
	tx := endorsed(t, n, bump)
	// Peer 1's copy of k moves under it: its MVCC check now fails the read
	// every other peer still finds current.
	peers[1].State().ApplyWrites([]statedb.Write{{Namespace: "kv", Key: "k", Value: []byte("diverged")}},
		statedb.Version{BlockNum: 7})
	before := dumpState(peers[1])

	err := n.commitBlock(&ledger.Block{Number: 1, PrevHash: seed.Hash, Transactions: []*ledger.Transaction{tx}})
	if !errors.Is(err, peer.ErrVerdictMismatch) {
		t.Fatalf("commitBlock = %v, want %v", err, peer.ErrVerdictMismatch)
	}
	for _, want := range []string{peers[1].Name(), "block 1", tx.ID} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	stored, err := peers[0].Blocks().TxByID(tx.ID)
	if err != nil || stored.Validation != ledger.Valid {
		t.Fatalf("peer 0's stored verdict = %v (%v), want %v", stored, err, ledger.Valid)
	}
	if h := peers[1].Blocks().Height(); h != 1 {
		t.Fatalf("divergent peer height = %d, want 1", h)
	}
	if got := dumpState(peers[1]); got != before {
		t.Fatalf("divergent peer applied writes:\n%s\nwas\n%s", got, before)
	}
}

// TestDeliveryOwnSignatureForgeries: a peer skips the ECDSA verify of an
// endorsement only when it is byte-equal to one the peer made itself over
// the same digest, under its own certificate. Each case below tampers with
// an endorsement by peers[0] of an organization, which commits the
// block too. Delivery fails if any peer's verdict differs from the first
// peer's, and every twin (fresh identity, full verify) must reach the same
// verdict on its own copy.
func TestDeliveryOwnSignatureForgeries(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	n := newFourPeerNetwork(t)
	peers := n.AllPeers()
	twins := newTwins(t, n)
	// deliver commits tx alone in a block through commit, which delivers
	// to the peers at the indices in at, and returns the verdict after
	// checking that each of their twins reaches it too; want 0 takes the
	// twins' verdict.
	deliver := func(t *testing.T, commit func(*ledger.Block) error, at []int, tx *ledger.Transaction, want ledger.ValidationCode) ledger.ValidationCode {
		t.Helper()
		first := peers[at[0]].Blocks()
		block := &ledger.Block{Number: first.Height(), PrevHash: first.TipHash(), Transactions: []*ledger.Transaction{tx}}
		copies := make([]*ledger.Block, len(at))
		for j, i := range at {
			copies[j] = twinCopy(twins[i], block)
		}
		if err := commit(block); err != nil {
			t.Fatalf("commit: %v", err)
		}
		for j, i := range at {
			if err := twins[i].CommitBlock(copies[j]); err != nil {
				t.Fatalf("%s CommitBlock: %v", twins[i].Name(), err)
			}
			if got := copies[j].Transactions[0].Validation; got != tx.Validation {
				t.Fatalf("%s: %v, its twin %v", peers[i].Name(), tx.Validation, got)
			}
		}
		if want != 0 && tx.Validation != want {
			t.Fatalf("verdict %v, want %v", tx.Validation, want)
		}
		return tx.Validation
	}
	all := []int{0, 1, 2, 3}

	a := endorsed(t, n, kvInv("tx-a", "put", "a", "1"))
	b := endorsed(t, n, kvInv("tx-b", "put", "b", "1"))
	b.Endorsements[0].Signature = a.Endorsements[0].Signature
	t.Run("lifted from another transaction", func(t *testing.T) {
		deliver(t, n.commitBlock, all, b, ledger.BadSignature)
	})
	t.Run("the transaction it was lifted from", func(t *testing.T) {
		deliver(t, n.commitBlock, all, a, ledger.Valid)
	})
	t.Run("the other organization's signature", func(t *testing.T) {
		tx := endorsed(t, n, kvInv("tx-c", "put", "c", "1"))
		tx.Endorsements[0].Signature = tx.Endorsements[1].Signature
		deliver(t, n.commitBlock, all, tx, ledger.BadSignature)
	})
	t.Run("malleated", func(t *testing.T) {
		tx := endorsed(t, n, kvInv("tx-d", "put", "d", "1"))
		en := &tx.Endorsements[0]
		en.Signature = malleate(t, peers[0].Identity().Key.Params().N, en.Signature)
		t.Logf("(r, n-s) of the signer's own signature: %v", deliver(t, n.commitBlock, all, tx, 0))
	})
	t.Run("signer's organization removed before delivery", func(t *testing.T) {
		tx := endorsed(t, n, kvInv("tx-e", "put", "e", "1"))
		signer := peers[2] // peers[0] of org-b, whose endorsement is tx's second
		if got := tx.Endorsements[1].PeerName; got != signer.Name() {
			t.Fatalf("second endorsement by %s, want %s", got, signer.Name())
		}
		if err := n.RemoveOrg("org-b"); err != nil {
			t.Fatalf("RemoveOrg: %v", err)
		}
		removed := *tx
		deliver(t, n.commitBlock, []int{0, 1}, tx, ledger.BadSignature)
		deliver(t, signer.CommitBlock, []int{2}, &removed, ledger.BadSignature)
	})
}

// TestDeliveryConcurrentSubmitters: concurrent submitters endorse on the
// same peers while group-committed blocks are checked, a block's (peer,
// transaction) pairs on several goroutines, so each peer's record of its
// own signatures is written and taken from many at once. Every
// transaction commits valid; run it under the race detector.
func TestDeliveryConcurrentSubmitters(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	n := newFourPeerNetwork(t)
	orgA, _ := n.Org("org-a")
	client, err := orgA.CA.Issue("client", msp.RoleClient)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	gw := n.Gateway(client)
	const submitters, each = 8, 4
	var wg sync.WaitGroup
	for i := range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range each {
				if _, err := gw.SubmitString("kv", "put", fmt.Sprintf("k-%d-%d", i, j), "v"); err != nil {
					t.Errorf("submitter %d, submit %d: %v", i, j, err)
				}
			}
		}()
	}
	wg.Wait()
}

// malleate returns the (r, n-s) twin of an ASN.1 ECDSA signature, which
// verifies wherever the original does.
func malleate(t *testing.T, n *big.Int, sig []byte) []byte {
	t.Helper()
	var rs struct{ R, S *big.Int }
	if _, err := asn1.Unmarshal(sig, &rs); err != nil {
		t.Fatalf("unmarshal signature: %v", err)
	}
	rs.S.Sub(n, rs.S)
	out, err := asn1.Marshal(rs)
	if err != nil {
		t.Fatalf("marshal signature: %v", err)
	}
	return out
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestDeliveryAllocations is the allocation tripwire of block delivery:
// one one-transaction block reaching all four peers, both endorsements
// checked by each. The bound is the measured count (62.3–63.2 over 30
// runs, ≈ 70 with a copy of each written value per peer and a verdict
// stage's state on the heap; ≈ 20 more with every signature verified), so
// it fails if a peer's shortcut for its own endorsements stops firing. It
// may only be lowered. The count is the median of rounds of measured
// blocks, so one busy round cannot fail it: a single round read 62.2–63.7
// over 30 runs.
// GOMAXPROCS is pinned so the verdict stage starts the same number of
// goroutines on any host (testing.AllocsPerRun would pin it to 1).
func TestDeliveryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the pooled digesters' counts do not hold under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	n := newFourPeerNetwork(t)
	const warm, measured, rounds = 8, 64, 5
	blocks := make([]*ledger.Block, warm+rounds*measured)
	for i := range blocks {
		tx := endorsed(t, n, kvInv(fmt.Sprintf("tx-%d", i), "put", "k", "v"))
		blocks[i] = &ledger.Block{Number: uint64(i), Transactions: []*ledger.Transaction{tx}}
	}
	deliver := func(b *ledger.Block) {
		if b.Number > 0 {
			b.PrevHash = blocks[b.Number-1].Hash
		}
		if err := n.commitBlock(b); err != nil {
			t.Fatalf("commitBlock %d: %v", b.Number, err)
		}
	}
	for _, b := range blocks[:warm] {
		deliver(b)
	}
	counts := make([]float64, rounds)
	for r := range counts {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, b := range blocks[warm+r*measured : warm+(r+1)*measured] {
			deliver(b)
		}
		runtime.ReadMemStats(&after)
		counts[r] = float64(after.Mallocs-before.Mallocs) / measured
	}
	slices.Sort(counts)
	got := counts[rounds/2]
	t.Logf("delivering a one-transaction block to 4 peers: %.2f allocs (median of %v)", got, counts)
	const max = 64
	if got > max {
		t.Fatalf("delivery allocs = %.2f, want <= %d", got, max)
	}
}
