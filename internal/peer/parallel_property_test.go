package peer

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/chaincode"
	"repro/internal/endorsement"
	"repro/internal/ledger"
	"repro/internal/msp"
)

// propKV is the property-test contract: enough operation shapes to generate
// every interesting read/write dependency — blind writes, deletes, reads,
// read-modify-writes, and cross-chaincode reads that put a second namespace
// into the read set.
var propKV = chaincode.Func(func(stub chaincode.Stub) ([]byte, error) {
	args := stub.Args()
	switch stub.Function() {
	case "put":
		return nil, stub.PutState(string(args[0]), args[1])
	case "del":
		return nil, stub.DelState(string(args[0]))
	case "get":
		return stub.GetState(string(args[0]))
	case "bump":
		v, err := stub.GetState(string(args[0]))
		if err != nil {
			return nil, err
		}
		return nil, stub.PutState(string(args[0]), append(v, 'x'))
	case "xbump":
		// Read a key from the sibling chaincode's namespace, write locally:
		// a two-namespace read set with a one-namespace write set.
		v, err := stub.InvokeChaincode(string(args[1]), "get", [][]byte{args[0]})
		if err != nil {
			return nil, err
		}
		return nil, stub.PutState(string(args[0]), append(v, 'y'))
	default:
		return nil, errors.New("unknown")
	}
})

// propFixture is one world: an endorser peer whose state tracks the
// committed chain (simulations run against it), plus the serial and
// parallel peers under comparison, whose commits paths records.
type propFixture struct {
	endorser, serial, parallel *Peer
	paths                      *pathRecorder
}

// pathRecorder is the fixture's policy provider. It tells the two commit
// engines apart by the stack that consults the endorsement policy: only
// the parallel committer's validation stage runs under commitParallel.
type pathRecorder struct {
	*fixedProviders
	mu               sync.Mutex
	serial, parallel int
}

func (r *pathRecorder) PolicyFor(name string) *endorsement.Policy {
	stack := make([]byte, 4096)
	stack = stack[:runtime.Stack(stack, false)]
	r.mu.Lock()
	if bytes.Contains(stack, []byte("commitParallel")) {
		r.parallel++
	} else {
		r.serial++
	}
	r.mu.Unlock()
	return r.fixedProviders.PolicyFor(name)
}

// reset returns the counts recorded so far and clears them.
func (r *pathRecorder) reset() (serial, parallel int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	serial, parallel = r.serial, r.parallel
	r.serial, r.parallel = 0, 0
	return serial, parallel
}

func newPropFixture(t *testing.T) *propFixture {
	t.Helper()
	ca, err := msp.NewCA("org-a")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	verifier, err := msp.NewVerifier(map[string][]byte{"org-a": ca.RootCertPEM()})
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	reg := chaincode.NewRegistry()
	reg.Register("ccA", propKV)
	reg.Register("ccB", propKV)
	paths := &pathRecorder{fixedProviders: &fixedProviders{verifier: verifier, policy: endorsement.MustParse("'org-a'")}}

	newPeer := func(name string) *Peer {
		id, err := ca.Issue(name, msp.RolePeer)
		if err != nil {
			t.Fatalf("Issue %s: %v", name, err)
		}
		return New(id, reg, paths, paths)
	}
	return &propFixture{
		endorser: newPeer("org-a-endorser"),
		serial:   newPeer("org-a-serial"),
		parallel: newPeer("org-a-parallel"),
		paths:    paths,
	}
}

// dumpState flattens a peer's world state for comparison.
func dumpState(p *Peer) string {
	var buf bytes.Buffer
	for _, ns := range p.State().Namespaces() {
		for _, kv := range p.State().Range(ns, "", "") {
			fmt.Fprintf(&buf, "%s/%s=%q@%d.%d\n", ns, kv.Key, kv.Value, kv.Version.BlockNum, kv.Version.TxNum)
		}
	}
	return buf.String()
}

// TestParallelCommitterEquivalentToSerial drives randomized conflict
// schedules — contended keys, read-modify-writes, cross-namespace reads,
// duplicate transaction IDs and interop keys, corrupted signatures —
// through the serial committer and the parallel committer and demands
// byte-identical outcomes: every transaction's validation code and the full
// namespaced world state after every block.
func TestParallelCommitterEquivalentToSerial(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runEquivalenceSchedule(t, seed, 12, 8)
		})
	}
}

func runEquivalenceSchedule(t *testing.T, seed int64, blocks, workers int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	f := newPropFixture(t)
	chaincodes := []string{"ccA", "ccB"}
	keys := []string{"k0", "k1", "k2", "k3"}
	var usedTxIDs, usedInteropKeys []string
	nextID := 0

	for blockNum := 0; blockNum < blocks; blockNum++ {
		n := 2 + r.Intn(8)
		invs := make([]chaincode.Invocation, 0, n)
		for i := 0; i < n; i++ {
			cc := chaincodes[r.Intn(len(chaincodes))]
			key := keys[r.Intn(len(keys))]
			var inv chaincode.Invocation
			switch r.Intn(10) {
			case 0:
				inv = chaincode.Invocation{Chaincode: cc, Function: "del", Args: [][]byte{[]byte(key)}}
			case 1, 2:
				inv = chaincode.Invocation{Chaincode: cc, Function: "get", Args: [][]byte{[]byte(key)}}
			case 3, 4, 5:
				inv = chaincode.Invocation{Chaincode: cc, Function: "bump", Args: [][]byte{[]byte(key)}}
			case 6:
				other := chaincodes[(r.Intn(len(chaincodes))+1)%len(chaincodes)]
				inv = chaincode.Invocation{Chaincode: cc, Function: "xbump", Args: [][]byte{[]byte(key), []byte(other)}}
			default:
				inv = chaincode.Invocation{Chaincode: cc, Function: "put",
					Args: [][]byte{[]byte(key), []byte(fmt.Sprintf("v%d", nextID))}}
			}
			// Transaction identity: mostly fresh, sometimes a replay of an
			// earlier ID or interop key to exercise the duplicate check —
			// both the chain index and the intra-block guard.
			switch {
			case len(usedTxIDs) > 0 && r.Intn(10) == 0:
				inv.TxID = usedTxIDs[r.Intn(len(usedTxIDs))]
			default:
				inv.TxID = fmt.Sprintf("tx-%d", nextID)
			}
			if r.Intn(4) == 0 {
				if len(usedInteropKeys) > 0 && r.Intn(3) == 0 {
					inv.InteropKey = usedInteropKeys[r.Intn(len(usedInteropKeys))]
				} else {
					inv.InteropKey = fmt.Sprintf("ik-%d", nextID)
					usedInteropKeys = append(usedInteropKeys, inv.InteropKey)
				}
			}
			usedTxIDs = append(usedTxIDs, inv.TxID)
			nextID++
			inv.Timestamp = time.Unix(1700000000, int64(nextID))
			invs = append(invs, inv)
		}

		// Endorse every transaction against the pre-block state, then
		// assemble an independent copy per peer: committers set Validation
		// in place, so the two runs must not share transaction objects.
		mkBlock := func(p *Peer) *ledger.Block {
			return &ledger.Block{Number: uint64(blockNum), PrevHash: p.Blocks().TipHash()}
		}
		serialBlock, parallelBlock, endorserBlock := mkBlock(f.serial), mkBlock(f.parallel), mkBlock(f.endorser)
		for i, inv := range invs {
			resp, err := f.endorser.Endorse(inv)
			if err != nil {
				t.Fatalf("block %d: endorse %s.%s: %v", blockNum, inv.Chaincode, inv.Function, err)
			}
			responses := []*ProposalResponse{resp}
			// Decide corruption once per transaction so every peer's copy
			// is corrupted (or not) alike: the concurrent endorsement stage
			// must produce the same BadSignature verdict as the serial one.
			corrupt := i%7 == 3 && r.Intn(4) == 0
			for _, blk := range []*ledger.Block{serialBlock, parallelBlock, endorserBlock} {
				tx, err := AssembleTransaction(inv, responses)
				if err != nil {
					t.Fatalf("block %d: assemble: %v", blockNum, err)
				}
				if corrupt {
					tx.Endorsements[0].Signature = append([]byte(nil), tx.Endorsements[0].Signature...)
					tx.Endorsements[0].Signature[0] ^= 0xff
				}
				blk.Transactions = append(blk.Transactions, tx)
			}
		}
		for _, blk := range []*ledger.Block{serialBlock, parallelBlock, endorserBlock} {
			blk.Hash = blk.ComputeHash()
		}

		// workers = 1 is the serial reference; the endorser follows it.
		for name, run := range map[string]struct {
			p       *Peer
			b       *ledger.Block
			workers int
		}{
			"serial": {f.serial, serialBlock, 1}, "parallel": {f.parallel, parallelBlock, workers}, "endorser": {f.endorser, endorserBlock, 1},
		} {
			if err := run.p.commitWith(run.b, nil, run.workers); err != nil {
				t.Fatalf("block %d: commit on %s: %v", blockNum, name, err)
			}
		}

		for i := range serialBlock.Transactions {
			s, q := serialBlock.Transactions[i], parallelBlock.Transactions[i]
			if s.Validation != q.Validation {
				t.Fatalf("block %d tx %d (%s %s.%s): serial=%v parallel=%v",
					blockNum, i, s.ID, s.Chaincode, s.Function, s.Validation, q.Validation)
			}
		}
		if got, want := dumpState(f.parallel), dumpState(f.serial); got != want {
			t.Fatalf("block %d: state diverged\nserial:\n%s\nparallel:\n%s", blockNum, want, got)
		}
	}
	if f.serial.State().Keys() == 0 {
		t.Fatal("schedule committed nothing; property vacuous")
	}
}

// TestParallelCommitterWorkerSweep re-runs one schedule across worker-pool
// sizes, including workers exceeding the block size.
func TestParallelCommitterWorkerSweep(t *testing.T) {
	for _, workers := range []int{2, 4, 16} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			runEquivalenceSchedule(t, 7, 8, workers)
		})
	}
}

// TestSerialFallbackKnob: the serial committer runs whenever workers is 1
// or the block carries one transaction, and CommitBlock takes its worker
// count from GOMAXPROCS. The engine that ran is read off the stack that
// consulted the endorsement policy; verdicts, state and version stamps
// match the serial reference on every path.
func TestSerialFallbackKnob(t *testing.T) {
	withProcs := func(n int) func(*Peer, *ledger.Block) error {
		return func(p *Peer, b *ledger.Block) error {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
			return p.CommitBlock(b)
		}
	}
	withWorkers := func(n int) func(*Peer, *ledger.Block) error {
		return func(p *Peer, b *ledger.Block) error { return p.commitWith(b, nil, n) }
	}
	for _, tc := range []struct {
		name     string
		txs      int
		commit   func(*Peer, *ledger.Block) error
		parallel bool
	}{
		{"workers=1", 2, withWorkers(1), false},
		{"one-tx-block", 1, withWorkers(16), false},
		{"workers=4", 2, withWorkers(4), true},
		{"gomaxprocs=1", 2, withProcs(1), false},
		{"gomaxprocs=2", 2, withProcs(2), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newPropFixture(t)
			// put writes k; bump read k's pre-block version, which the
			// in-block put moves, so MVCC invalidates it.
			invs := []chaincode.Invocation{
				{TxID: "ta", Chaincode: "ccA", Function: "put",
					Args: [][]byte{[]byte("k"), []byte("1")}, Timestamp: time.Unix(1700000000, 0)},
				{TxID: "tb", Chaincode: "ccA", Function: "bump",
					Args: [][]byte{[]byte("k")}, Timestamp: time.Unix(1700000000, 1)},
			}[:tc.txs]
			want := []ledger.ValidationCode{ledger.Valid, ledger.MVCCConflict}
			block := func() *ledger.Block {
				b := &ledger.Block{Number: 0}
				for _, inv := range invs {
					resp, err := f.endorser.Endorse(inv)
					if err != nil {
						t.Fatalf("endorse: %v", err)
					}
					tx, err := AssembleTransaction(inv, []*ProposalResponse{resp})
					if err != nil {
						t.Fatalf("assemble: %v", err)
					}
					b.Transactions = append(b.Transactions, tx)
				}
				b.Hash = b.ComputeHash()
				return b
			}
			ref, got := block(), block()
			if err := f.serial.commitWith(ref, nil, 1); err != nil {
				t.Fatalf("reference commit: %v", err)
			}
			f.paths.reset()
			if err := tc.commit(f.parallel, got); err != nil {
				t.Fatalf("commit: %v", err)
			}
			if _, parallel := f.paths.reset(); (parallel > 0) != tc.parallel {
				t.Fatalf("parallel committer ran = %v, want %v", parallel > 0, tc.parallel)
			}
			for i, tx := range got.Transactions {
				if tx.Validation != want[i] || ref.Transactions[i].Validation != want[i] {
					t.Fatalf("tx %d validation = %v (reference %v), want %v", i, tx.Validation, ref.Transactions[i].Validation, want[i])
				}
			}
			if dumpState(f.parallel) != dumpState(f.serial) {
				t.Fatalf("state diverged from the serial reference:\n%s\nvs\n%s", dumpState(f.parallel), dumpState(f.serial))
			}
		})
	}
}
