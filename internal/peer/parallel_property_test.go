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
	"repro/internal/statedb"
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
// committed chain (simulations run against it), plus the reference and
// staged peers under comparison, whose verdict stages paths records.
type propFixture struct {
	endorser, serial, parallel *Peer
	paths                      *pathRecorder
}

// pathRecorder is the fixture's policy provider, which the verdict stage
// consults once per (peer, transaction) pair. It tells apart the calls
// made on a test's own goroutine from those a verdict pool goroutine
// makes: only the former have testing.tRunner on their stack. While armed,
// a call on the test's goroutine waits until a pool goroutine has made
// one, so a pool that exists is always seen doing work.
type pathRecorder struct {
	*fixedProviders
	mu               sync.Mutex
	serial, parallel int
	pool             chan struct{} // armed: closed by the first pool call
}

func (r *pathRecorder) PolicyFor(name string) *endorsement.Policy {
	stack := make([]byte, 8192)
	stack = stack[:runtime.Stack(stack, false)]
	onTest := bytes.Contains(stack, []byte("testing.tRunner"))
	r.mu.Lock()
	wait := r.pool
	if onTest {
		r.serial++
	} else {
		r.parallel++
		if r.pool != nil {
			close(r.pool)
			r.pool = nil
		}
	}
	r.mu.Unlock()
	if onTest && wait != nil {
		select {
		case <-wait:
		case <-time.After(10 * time.Second):
		}
	}
	return r.fixedProviders.PolicyFor(name)
}

// arm makes the next calls on the test's goroutine wait for a pool call.
func (r *pathRecorder) arm() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pool = make(chan struct{})
}

// reset returns the counts recorded so far, clears them and disarms.
func (r *pathRecorder) reset() (serial, parallel int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	serial, parallel = r.serial, r.parallel
	r.serial, r.parallel, r.pool = 0, 0, nil
	return serial, parallel
}

// commitWithProcs is CommitBlock with GOMAXPROCS at procs, the worker
// count of both commit stages.
func commitWithProcs(p *Peer, b *ledger.Block, procs int) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return p.CommitBlock(b)
}

// commitReference is the one-transaction-at-a-time committer the two
// commit stages are held to: each transaction's endorsement, duplicate and
// MVCC checks in turn, against state that already holds the earlier valid
// transactions' writes.
func commitReference(p *Peer, block *ledger.Block) error {
	verifier := p.verifiers.Verifier()
	seenIDs := make(map[string]struct{})
	seenKeys := make(map[string]struct{})
	for txNum, tx := range block.Transactions {
		if p.isDuplicate(tx, seenIDs, seenKeys) {
			tx.Validation = ledger.Duplicate
			continue
		}
		tx.Validation = p.validateEndorsements(tx, verifier)
		for _, r := range tx.RWSet.Reads {
			ver, exists := p.state.Version(r.Namespace, r.Key)
			if tx.Validation == ledger.Valid && (exists != r.Exists || (exists && ver != r.Version)) {
				tx.Validation = ledger.MVCCConflict
			}
		}
		if tx.Validation != ledger.Valid {
			continue
		}
		seenIDs[tx.ID] = struct{}{}
		if tx.InteropKey != "" {
			seenKeys[tx.InteropKey] = struct{}{}
		}
		p.state.ApplyWrites(tx.RWSet.Writes,
			statedb.Version{BlockNum: block.Number, TxNum: uint64(txNum)})
	}
	if err := p.blocks.Append(block); err != nil {
		return err
	}
	return nil
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
// through the reference committer and the two commit stages, with one
// worker and with many, and demands byte-identical outcomes: every
// transaction's validation code and the full namespaced world state, with
// its version stamps, after every block.
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

		// The serial peer runs the reference; the endorser runs both stages
		// with one worker, the parallel peer with workers.
		if err := commitReference(f.serial, serialBlock); err != nil {
			t.Fatalf("block %d: reference commit: %v", blockNum, err)
		}
		for name, run := range map[string]struct {
			p       *Peer
			b       *ledger.Block
			workers int
		}{
			"parallel": {f.parallel, parallelBlock, workers}, "endorser": {f.endorser, endorserBlock, 1},
		} {
			if err := commitWithProcs(run.p, run.b, run.workers); err != nil {
				t.Fatalf("block %d: commit on %s: %v", blockNum, name, err)
			}
			for i, s := range serialBlock.Transactions {
				if q := run.b.Transactions[i]; s.Validation != q.Validation {
					t.Fatalf("block %d tx %d (%s %s.%s): reference=%v %s=%v",
						blockNum, i, s.ID, s.Chaincode, s.Function, s.Validation, name, q.Validation)
				}
			}
			if got, want := dumpState(run.p), dumpState(f.serial); got != want {
				t.Fatalf("block %d: %s state diverged\nreference:\n%s\n%s:\n%s", blockNum, name, want, name, got)
			}
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

// TestSerialFallbackKnob: CommitBlock takes its worker count from
// GOMAXPROCS. The verdict stage starts no goroutine when that is 1 or the
// block carries one transaction, and does when both exceed one. Which ran
// is read off the stacks that consulted the endorsement policy; verdicts,
// state and version stamps match the reference on every path.
func TestSerialFallbackKnob(t *testing.T) {
	withProcs := func(n int) func(*Peer, *ledger.Block) error {
		return func(p *Peer, b *ledger.Block) error { return commitWithProcs(p, b, n) }
	}
	for _, tc := range []struct {
		name     string
		txs      int
		commit   func(*Peer, *ledger.Block) error
		parallel bool
	}{
		{"workers=1", 2, withProcs(1), false},
		{"one-tx-block", 1, withProcs(16), false},
		{"workers=4", 2, withProcs(4), true},
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
			if err := commitReference(f.serial, ref); err != nil {
				t.Fatalf("reference commit: %v", err)
			}
			f.paths.reset()
			if tc.parallel {
				f.paths.arm()
			}
			if err := tc.commit(f.parallel, got); err != nil {
				t.Fatalf("commit: %v", err)
			}
			if _, parallel := f.paths.reset(); (parallel > 0) != tc.parallel {
				t.Fatalf("verdict pool ran = %v, want %v", parallel > 0, tc.parallel)
			}
			for i, tx := range got.Transactions {
				if tx.Validation != want[i] || ref.Transactions[i].Validation != want[i] {
					t.Fatalf("tx %d validation = %v (reference %v), want %v", i, tx.Validation, ref.Transactions[i].Validation, want[i])
				}
			}
			if dumpState(f.parallel) != dumpState(f.serial) {
				t.Fatalf("state diverged from the reference:\n%s\nvs\n%s", dumpState(f.parallel), dumpState(f.serial))
			}
		})
	}
}
