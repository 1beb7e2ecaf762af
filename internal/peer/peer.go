// Package peer implements the peer node of the simulated platform. A peer
// plays two roles from Fabric's execute-order-validate pipeline (§4.1 of
// the paper): as an endorser it simulates transaction proposals against its
// world state and signs the result; as a committer it validates ordered
// blocks (endorsement signatures, endorsement policy, MVCC read conflicts)
// and applies the surviving writes.
//
// Commitment runs in two stages. The verdict stage (CheckEndorsements) is
// read-only and per transaction: certificate, signature and endorsement
// policy checks. Every peer checks the signature of every endorsement it
// did not sign itself; of one byte-equal to a signature it made over the
// same digest under its own certificate it skips only the ECDSA verify,
// whose outcome is known. The stage runs every (peer, transaction) pair it
// is given on one pool of up to GOMAXPROCS goroutines, so a network's peers
// check a delivered block at the same time, as Fabric's peers each do on
// their own node. The in-order stage (CommitChecked) then takes one peer's
// verdicts and walks the block in order: duplicate and MVCC read checks
// against a block-local overlay of the earlier valid transactions' writes,
// then the surviving writes apply. A multi-transaction block on a multi-core host
// applies level by level: a transaction's level is one past the deepest
// earlier writer of any namespaced key it writes, and a level's write sets
// apply concurrently. No setting selects any of this. The property suite in
// parallel_property_test.go holds both stages to a one-transaction-at-a-time
// reference committer: validation codes, version stamps and world state
// byte for byte.
package peer

import (
	"bytes"
	"crypto/ecdsa"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/chaincode"
	"repro/internal/cryptoutil"
	"repro/internal/endorsement"
	"repro/internal/ledger"
	"repro/internal/msp"
	"repro/internal/statedb"
)

var (
	// ErrProposalMismatch is returned when endorsers disagree on a
	// proposal's simulation result.
	ErrProposalMismatch = errors.New("peer: endorsers produced divergent results")
)

// PolicyProvider supplies the endorsement policy for a chaincode at
// validation time.
type PolicyProvider interface {
	PolicyFor(chaincodeName string) *endorsement.Policy
}

// VerifierProvider supplies the current MSP verifier for the network. It is
// an indirection rather than a fixed *msp.Verifier because organizations
// can be added to a network after its peers are created.
type VerifierProvider interface {
	Verifier() *msp.Verifier
}

// ProposalResponse is an endorser's reply to a transaction proposal.
type ProposalResponse struct {
	Response    []byte
	RWSet       ledger.RWSet
	Event       *ledger.ChaincodeEvent
	Endorsement ledger.Endorsement
}

// Peer is one node of a network.
type Peer struct {
	name     string
	identity *msp.Identity

	mu     sync.Mutex // serializes block commits
	state  *statedb.Store
	blocks *ledger.BlockStore

	registry  *chaincode.Registry
	verifiers VerifierProvider
	policies  PolicyProvider

	signedMu sync.Mutex // guards signed; not mu, so Endorse never waits on a commit
	signed   map[[cryptoutil.DigestSize]byte]string
}

// maxSigned bounds a peer's record of the endorsements it signed and has
// not yet checked. A proposal that is never ordered leaves its entry
// behind; when the record is full the next Endorse drops it wholesale,
// which costs only full verifies.
const maxSigned = 1024

// New creates a peer. The registry is shared chaincode logic; verifiers
// supplies the local network's organization roots; policies supplies
// per-chaincode endorsement policies for commit-time validation.
func New(identity *msp.Identity, registry *chaincode.Registry, verifiers VerifierProvider, policies PolicyProvider) *Peer {
	return &Peer{
		name:      identity.Name,
		identity:  identity,
		state:     statedb.NewStore(),
		blocks:    ledger.NewBlockStore(),
		registry:  registry,
		verifiers: verifiers,
		policies:  policies,
	}
}

// Name returns the peer's name.
func (p *Peer) Name() string { return p.name }

// OrgID returns the peer's organization.
func (p *Peer) OrgID() string { return p.identity.OrgID }

// Identity returns the peer's MSP identity.
func (p *Peer) Identity() *msp.Identity { return p.identity }

// State exposes the peer's world state for read-only inspection in tests
// and tooling.
func (p *Peer) State() *statedb.Store { return p.state }

// Blocks exposes the peer's block store.
func (p *Peer) Blocks() *ledger.BlockStore { return p.blocks }

// Endorse simulates the proposal and signs the canonical transaction
// payload derived from it — by its digest, which hashes the payload without
// building it (Fig. 2 step 6-7 happen inside the invoked chaincode; the
// endorsement signature is this peer's attestation of the simulation
// outcome).
func (p *Peer) Endorse(inv chaincode.Invocation) (*ProposalResponse, error) {
	res, err := chaincode.Simulate(p.registry, p.state, inv)
	if err != nil {
		return nil, fmt.Errorf("peer %s: simulate %s.%s: %w", p.name, inv.Chaincode, inv.Function, err)
	}
	tx := BuildTransaction(inv, &res)
	digest := tx.Sum()
	sig, err := cryptoutil.SignDigest(p.identity.Key, digest[:])
	if err != nil {
		return nil, fmt.Errorf("peer %s: sign endorsement: %w", p.name, err)
	}
	p.signedMu.Lock()
	if p.signed == nil || len(p.signed) >= maxSigned {
		p.signed = make(map[[cryptoutil.DigestSize]byte]string)
	}
	p.signed[digest] = string(sig) // a copy: the caller owns sig
	p.signedMu.Unlock()
	return &ProposalResponse{
		Response: res.Response,
		RWSet:    res.RWSet,
		Event:    res.Event,
		Endorsement: ledger.Endorsement{
			PeerName:  p.name,
			OrgID:     p.identity.OrgID,
			CertPEM:   p.identity.CertPEM(),
			Signature: sig,
		},
	}, nil
}

// Query evaluates a read-only invocation and returns its response without
// producing a transaction. It records no read set (chaincode.Evaluate), so
// it is the call for a caller that wants the answer only. Its response and
// error are those of QueryRW(inv).Response for the same invocation; a write
// attempt fails with chaincode.ErrReadOnly on both. A response the
// chaincode read from state is the committed value itself, so on both it
// is read-only: a caller that modified it would modify the world state.
func (p *Peer) Query(inv chaincode.Invocation) ([]byte, error) {
	resp, err := chaincode.Evaluate(p.registry, p.state, inv)
	return resp, p.queryErr(inv, err)
}

// QueryStrings is Query with args in place of inv.Args, passed to the
// chaincode as read-only views of the strings (chaincode.EvaluateStrings).
func (p *Peer) QueryStrings(inv chaincode.Invocation, args ...string) ([]byte, error) {
	resp, err := chaincode.EvaluateStrings(p.registry, p.state, inv, args...)
	return resp, p.queryErr(inv, err)
}

// queryErr names the peer and the invocation in a failed query's error.
func (p *Peer) queryErr(inv chaincode.Invocation, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("peer %s: query %s.%s: %w", p.name, inv.Chaincode, inv.Function, err)
}

// QueryRW simulates a read-only invocation and returns the full simulation
// result including the read set, for a caller that needs to know what the
// answer depends on. The relay driver hashes the read set's keys and
// versions into its attestation cache key, so a cached response is never
// served after a commit to any key it read.
func (p *Peer) QueryRW(inv chaincode.Invocation) (chaincode.SimResult, error) {
	inv.ReadOnly = true
	res, err := chaincode.Simulate(p.registry, p.state, inv)
	if err != nil {
		return chaincode.SimResult{}, fmt.Errorf("peer %s: query %s.%s: %w", p.name, inv.Chaincode, inv.Function, err)
	}
	return res, nil
}

// BuildTransaction assembles the canonical transaction from a proposal and
// one endorser's simulation result. Every endorser and the client construct
// the same bytes, which is what makes the endorsement signatures
// comparable. It returns the transaction by value, so a caller that only
// hashes it keeps it on its stack.
func BuildTransaction(inv chaincode.Invocation, res *chaincode.SimResult) ledger.Transaction {
	return ledger.Transaction{
		ID:          inv.TxID,
		Chaincode:   inv.Chaincode,
		Function:    inv.Function,
		Args:        inv.Args,
		CreatorCert: inv.CreatorCert,
		RWSet:       res.RWSet,
		Response:    res.Response,
		Event:       res.Event,
		UnixNano:    uint64(inv.Timestamp.UnixNano()),
		InteropKey:  inv.InteropKey,
	}
}

// AssembleTransaction merges proposal responses from several endorsers into
// a single endorsed transaction, verifying that all endorsers simulated
// identical results: every response must yield the first one's payload
// digest, and equal digests mean equal signed payloads.
func AssembleTransaction(inv chaincode.Invocation, responses []*ProposalResponse) (*ledger.Transaction, error) {
	if len(responses) == 0 {
		return nil, errors.New("peer: no proposal responses")
	}
	first := responses[0]
	tx := BuildTransaction(inv, &chaincode.SimResult{
		Response: first.Response,
		RWSet:    first.RWSet,
		Event:    first.Event,
	})
	digest := tx.Sum()
	for _, r := range responses[1:] {
		other := BuildTransaction(inv, &chaincode.SimResult{
			Response: r.Response,
			RWSet:    r.RWSet,
			Event:    r.Event,
		})
		if other.Sum() != digest {
			return nil, ErrProposalMismatch
		}
	}
	tx.Endorsements = make([]ledger.Endorsement, len(responses))
	for i, r := range responses {
		tx.Endorsements[i] = r.Endorsement
	}
	return &tx, nil
}

// ErrVerdictMismatch is returned when a peer's verdict on a transaction
// differs from the one already recorded on it by another peer.
var ErrVerdictMismatch = errors.New("peer: verdict differs from the recorded one")

// CommitBlock commits a block on this peer alone: both stages, the verdict
// stage against the network's current verifier. Verdicts are identical to
// those of the one-transaction-at-a-time reference, as are version stamps
// and world state.
func (p *Peer) CommitBlock(block *ledger.Block) error {
	endorsed := make([]ledger.ValidationCode, len(block.Transactions))
	CheckEndorsements([]*Peer{p}, block, p.verifiers.Verifier(), endorsed)
	return p.CommitChecked(block, endorsed)
}

// CheckEndorsements is the verdict stage for every peer in peers: each
// checks every transaction of block against verifier itself. The verdict
// of peers[i] on transaction j goes to verdicts[i*len(block.Transactions)+j];
// the caller owns the slice, which must hold one entry per pair. The pairs
// run on up to GOMAXPROCS goroutines, counting the caller's; with one, or
// one pair, it starts none. The goroutines share a pooled endorsementCheck,
// so a block's verdict stage allocates no closure, counter or WaitGroup.
func CheckEndorsements(peers []*Peer, block *ledger.Block, verifier *msp.Verifier, verdicts []ledger.ValidationCode) {
	c := endorsementChecks.Get().(*endorsementCheck)
	c.peers, c.txs, c.verifier, c.verdicts = peers, block.Transactions, verifier, verdicts
	c.next.Store(0)
	workers := max(1, min(runtime.GOMAXPROCS(0), len(verdicts)))
	c.wg.Add(workers)
	for range workers - 1 {
		go c.work()
	}
	c.work()
	c.wg.Wait()
	c.peers, c.txs, c.verifier, c.verdicts = nil, nil, nil, nil
	endorsementChecks.Put(c)
}

// endorsementCheck is one CheckEndorsements call's shared state. Its work
// func is bound once, when the pool makes it, so starting a worker
// allocates nothing.
type endorsementCheck struct {
	peers    []*Peer
	txs      []*ledger.Transaction
	verifier *msp.Verifier
	verdicts []ledger.ValidationCode
	next     atomic.Int64
	wg       sync.WaitGroup
	work     func()
}

var endorsementChecks = sync.Pool{New: func() any {
	c := new(endorsementCheck)
	c.work = c.run
	return c
}}

// run takes (peer, transaction) pairs until none is left.
func (c *endorsementCheck) run() {
	defer c.wg.Done()
	for i := int(c.next.Add(1) - 1); i < len(c.verdicts); i = int(c.next.Add(1) - 1) {
		c.verdicts[i] = c.peers[i/len(c.txs)].validateEndorsements(c.txs[i%len(c.txs)], c.verifier)
	}
}

// CommitChecked is the in-order stage: it commits block on this peer given
// the peer's own CheckEndorsements verdicts, one per transaction, which it
// overwrites with the final ones. It checks duplicates and MVCC reads in
// block order, applies the writes of the valid transactions and appends
// the block.
//
// The first peer to commit a block records the verdicts on its
// transactions. Every later one, live or replaying a stored block in
// catch-up, compares instead: on any difference it applies nothing and
// returns ErrVerdictMismatch, so a peer whose state or verifier diverged
// can never rewrite the history other peers have indexed.
func (p *Peer) CommitChecked(block *ledger.Block, verdicts []ledger.ValidationCode) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.decide(block, verdicts)
	for i, tx := range block.Transactions {
		if tx.Validation != 0 && tx.Validation != verdicts[i] {
			return fmt.Errorf("%w: peer %s, block %d, tx %s: %v, recorded %v",
				ErrVerdictMismatch, p.name, block.Number, tx.ID, verdicts[i], tx.Validation)
		}
	}
	for i, tx := range block.Transactions {
		if tx.Validation == 0 {
			tx.Validation = verdicts[i]
		}
	}
	p.apply(block, verdicts)
	if err := p.blocks.Append(block); err != nil {
		return fmt.Errorf("peer %s: append block %d: %w", p.name, block.Number, err)
	}
	return nil
}

// overlayEntry mirrors what statedb.Version would report for a key after
// the writes of the earlier valid transactions in the block had been
// applied, without actually mutating state until every verdict is known.
type overlayEntry struct {
	exists  bool
	version statedb.Version
}

// nsKey is a namespaced state key, the overlay's and the leveling's map key.
type nsKey struct{ ns, key string }

// decide turns endorsement verdicts into final ones in block order:
// duplicates, then MVCC read freshness against committed state plus an
// overlay of the earlier valid transactions' writes. It writes nothing to
// state, so every verdict is known before any write applies.
func (p *Peer) decide(block *ledger.Block, verdicts []ledger.ValidationCode) {
	// Exactly-once guard inside the block: two relays racing the same
	// logical invoke can land both copies in one batch, where the chain
	// index (which only sees committed blocks) cannot catch the second.
	seenIDs := make(map[string]struct{})
	seenKeys := make(map[string]struct{})
	var overlay map[nsKey]overlayEntry
	txs := block.Transactions
	for txNum, tx := range txs {
		if p.isDuplicate(tx, seenIDs, seenKeys) {
			verdicts[txNum] = ledger.Duplicate
			continue
		}
		if verdicts[txNum] != ledger.Valid {
			continue
		}
		if !p.readsCurrent(tx, overlay) {
			verdicts[txNum] = ledger.MVCCConflict
			continue
		}
		seenIDs[tx.ID] = struct{}{}
		if tx.InteropKey != "" {
			seenKeys[tx.InteropKey] = struct{}{}
		}
		if txNum == len(txs)-1 {
			break // no later transaction reads the overlay
		}
		if overlay == nil {
			overlay = make(map[nsKey]overlayEntry)
		}
		ver := statedb.Version{BlockNum: block.Number, TxNum: uint64(txNum)}
		for i := range tx.RWSet.Writes {
			w := &tx.RWSet.Writes[i]
			overlay[nsKey{w.Namespace, w.Key}] = overlayEntry{exists: !w.IsDelete, version: ver}
		}
	}
}

// apply writes the valid transactions' write sets to state. At GOMAXPROCS
// 1, or for one transaction, it applies them in block order. Otherwise they
// apply level by level, a level's write sets on up to GOMAXPROCS
// goroutines: a transaction lands one level after the latest earlier valid
// transaction writing any of the same namespaced keys, so write sets
// within a level are key-disjoint.
func (p *Peer) apply(block *ledger.Block, verdicts []ledger.ValidationCode) {
	txs := block.Transactions
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 || len(txs) <= 1 {
		for txNum := range txs {
			if verdicts[txNum] == ledger.Valid {
				p.applyTx(block, txNum)
			}
		}
		return
	}
	keyLevel := make(map[nsKey]int)
	var levels [][]int
	for txNum, tx := range txs {
		if verdicts[txNum] != ledger.Valid {
			continue
		}
		level := 0
		for _, w := range tx.RWSet.Writes {
			level = max(level, keyLevel[nsKey{w.Namespace, w.Key}])
		}
		level++
		for _, w := range tx.RWSet.Writes {
			keyLevel[nsKey{w.Namespace, w.Key}] = level
		}
		for len(levels) < level {
			levels = append(levels, nil)
		}
		levels[level-1] = append(levels[level-1], txNum)
	}
	sem := make(chan struct{}, workers)
	for _, level := range levels {
		if len(level) == 1 {
			p.applyTx(block, level[0])
			continue
		}
		var wg sync.WaitGroup
		for _, txNum := range level {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				p.applyTx(block, txNum)
				<-sem
			}()
		}
		wg.Wait()
	}
}

// applyTx writes transaction txNum's write set, stamped with its position.
func (p *Peer) applyTx(block *ledger.Block, txNum int) {
	p.state.ApplyWrites(block.Transactions[txNum].RWSet.Writes,
		statedb.Version{BlockNum: block.Number, TxNum: uint64(txNum)})
}

// readsCurrent performs the MVCC read-freshness check: each read must
// observe the same existence and version it saw at simulation time, where
// "current" means committed state plus the overlay of earlier in-block
// valid writes.
func (p *Peer) readsCurrent(tx *ledger.Transaction, overlay map[nsKey]overlayEntry) bool {
	for _, r := range tx.RWSet.Reads {
		if e, ok := overlay[nsKey{r.Namespace, r.Key}]; ok {
			if e.exists != r.Exists || (e.exists && e.version != r.Version) {
				return false
			}
			continue
		}
		ver, exists := p.state.Version(r.Namespace, r.Key)
		if exists != r.Exists || (exists && ver != r.Version) {
			return false
		}
	}
	return true
}

// isDuplicate reports whether a transaction with the same ID or the same
// interop request key already committed as Valid — on the chain, or earlier
// in the block being committed. Only valid commits count: a transaction
// that failed validation may legitimately be resubmitted under the same ID
// (the relay retry path), and rejecting the retry as a duplicate of a
// no-effect attempt would wedge it forever.
func (p *Peer) isDuplicate(tx *ledger.Transaction, seenIDs, seenKeys map[string]struct{}) bool {
	if _, ok := seenIDs[tx.ID]; ok {
		return true
	}
	if p.blocks.HasValidTx(tx.ID) {
		return true
	}
	if tx.InteropKey != "" {
		if _, ok := seenKeys[tx.InteropKey]; ok {
			return true
		}
		if _, err := p.blocks.TxByInteropKey(tx.InteropKey); err == nil {
			return true
		}
	}
	return false
}

// takeSigned removes and returns the signature this peer made in Endorse
// over digest, or "" if it made none or the record was dropped since.
func (p *Peer) takeSigned(digest [cryptoutil.DigestSize]byte) string {
	p.signedMu.Lock()
	defer p.signedMu.Unlock()
	sig := p.signed[digest]
	delete(p.signed, digest)
	return sig
}

// validateEndorsements is the verdict stage for one transaction: the
// position-independent commit-time checks, endorsement signature
// authenticity and endorsement policy satisfaction. It never touches world
// state, so CheckEndorsements runs it for many peers and transactions at
// once.
//
// Every endorsement's certificate is parsed and checked against verifier,
// and the policy is checked over all of them. The peer checks the signature
// of every endorsement it did not sign itself. It skips the verify only
// for an endorsement whose certificate is byte-equal to its own and whose
// signature is byte-equal to the one it made over this digest in Endorse:
// its own key's signature over that digest always verifies. The record is
// this peer's alone and is taken on first check, so a lifted, malleated or
// corrupted copy of its signature, another transaction's check, or a second
// check of this one all get the full verify.
func (p *Peer) validateEndorsements(tx *ledger.Transaction, verifier *msp.Verifier) ledger.ValidationCode {
	digest := tx.Sum()
	own := p.takeSigned(digest)
	// Policy.Satisfied retains nothing, so the usual endorser count fits
	// on the stack.
	var room [4]endorsement.Principal
	signers := room[:0]
	for i := range tx.Endorsements {
		en := &tx.Endorsements[i]
		cert, err := msp.ParseCertPEM(en.CertPEM)
		if err != nil {
			return ledger.BadSignature
		}
		info, err := verifier.Verify(cert)
		if err != nil {
			return ledger.BadSignature
		}
		pub, ok := cert.PublicKey.(*ecdsa.PublicKey)
		if !ok {
			return ledger.BadSignature
		}
		// Not msp.VerifySignature: each committing peer validates every
		// block itself, and in-process peers sharing verdicts would only
		// measure co-location.
		signedHere := own != "" && string(en.Signature) == own && bytes.Equal(en.CertPEM, p.identity.CertPEM())
		if !signedHere && cryptoutil.VerifyDigest(pub, digest[:], en.Signature) != nil {
			return ledger.BadSignature
		}
		// Use the certificate contents, not the self-declared fields, as
		// the authoritative principal.
		signers = append(signers, endorsement.Principal{OrgID: info.OrgID, Role: info.Role})
	}
	policy := p.policies.PolicyFor(tx.Chaincode)
	if policy == nil || !policy.Satisfied(signers) {
		return ledger.EndorsementFailure
	}
	return ledger.Valid
}
