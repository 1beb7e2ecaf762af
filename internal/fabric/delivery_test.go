package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
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

func runDeliverySchedule(t *testing.T, seed int64, blocks int) {
	r := rand.New(rand.NewSource(seed))
	n := newFourPeerNetwork(t)
	peers := n.AllPeers()
	var twins []*peer.Peer
	for _, p := range peers {
		org, _ := n.Org(p.OrgID())
		id, err := org.CA.Issue(p.Name()+"-twin", msp.RolePeer)
		if err != nil {
			t.Fatalf("Issue: %v", err)
		}
		twins = append(twins, peer.New(id, n.registry, n, n))
	}
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
			c := &ledger.Block{Number: num, PrevHash: twin.Blocks().TipHash()}
			for _, tx := range block.Transactions {
				dup := *tx
				c.Transactions = append(c.Transactions, &dup)
			}
			copies[i] = c
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

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestDeliveryAllocations is the allocation tripwire of block delivery:
// one one-transaction block reaching all four peers, both endorsements
// checked by each. The bound is the count measured before the peers
// checked a block's endorsements concurrently; it may only be lowered.
// GOMAXPROCS is pinned so the verdict stage starts the same number of
// goroutines on any host (testing.AllocsPerRun would pin it to 1).
func TestDeliveryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the pooled digesters' counts do not hold under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	n := newFourPeerNetwork(t)
	const warm, measured = 8, 64
	blocks := make([]*ledger.Block, warm+measured)
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range blocks[warm:] {
		deliver(b)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("delivering a one-transaction block to 4 peers: %.2f allocs", got)
	const max = 123
	if got > max {
		t.Fatalf("delivery allocs = %.2f, want <= %d", got, max)
	}
}
