// Package peer implements the peer node of the simulated platform. A peer
// plays two roles from Fabric's execute-order-validate pipeline (§4.1 of
// the paper): as an endorser it simulates transaction proposals against its
// world state and signs the result; as a committer it validates ordered
// blocks (endorsement signatures, endorsement policy, MVCC read conflicts)
// and applies the surviving writes.
//
// Commitment has two engines with identical results. The serial committer
// walks the block transaction by transaction — the reference semantics.
// The parallel committer handles multi-transaction blocks in three stages:
// endorsement signature and policy checks run concurrently on a bounded
// worker pool; a serial pass then validates duplicates and MVCC reads
// against a block-local overlay and levels the survivors by write-write
// conflicts on their RWSet's namespaced keys (a transaction's level is one
// past the deepest earlier writer of any key it writes); finally each
// level's write sets apply concurrently — different levels in order, so
// dependent writes never race. Validation codes, version stamps and
// resulting world state are identical by construction (the property suite
// in parallel_property_test.go holds the two engines to byte equality).
// No setting selects an engine: CommitBlock runs the parallel one with
// GOMAXPROCS workers when that is above one and the block carries more than
// one transaction, and the serial one otherwise.
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
	history   *historyIndex
}

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
		history:   newHistoryIndex(),
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
	sig, err := cryptoutil.SignDigest(p.identity.Key, BuildTransaction(inv, res).Digest())
	if err != nil {
		return nil, fmt.Errorf("peer %s: sign endorsement: %w", p.name, err)
	}
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
// attempt fails with chaincode.ErrReadOnly on both.
func (p *Peer) Query(inv chaincode.Invocation) ([]byte, error) {
	resp, err := chaincode.Evaluate(p.registry, p.state, inv)
	if err != nil {
		return nil, fmt.Errorf("peer %s: query %s.%s: %w", p.name, inv.Chaincode, inv.Function, err)
	}
	return resp, nil
}

// QueryRW simulates a read-only invocation and returns the full simulation
// result including the read set, for a caller that needs to know what the
// answer depends on. The relay driver uses the read set's namespaces to key
// its attestation cache exactly: a cached response only needs invalidating
// when one of the namespaces it actually read is written.
func (p *Peer) QueryRW(inv chaincode.Invocation) (*chaincode.SimResult, error) {
	inv.ReadOnly = true
	res, err := chaincode.Simulate(p.registry, p.state, inv)
	if err != nil {
		return nil, fmt.Errorf("peer %s: query %s.%s: %w", p.name, inv.Chaincode, inv.Function, err)
	}
	return res, nil
}

// BuildTransaction assembles the canonical transaction from a proposal and
// one endorser's simulation result. Every endorser and the client construct
// the same bytes, which is what makes the endorsement signatures
// comparable.
func BuildTransaction(inv chaincode.Invocation, res *chaincode.SimResult) *ledger.Transaction {
	return &ledger.Transaction{
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
	digest := tx.Digest()
	for _, r := range responses[1:] {
		other := BuildTransaction(inv, &chaincode.SimResult{
			Response: r.Response,
			RWSet:    r.RWSet,
			Event:    r.Event,
		})
		if !bytes.Equal(digest, other.Digest()) {
			return nil, ErrProposalMismatch
		}
	}
	for _, r := range responses {
		tx.Endorsements = append(tx.Endorsements, r.Endorsement)
	}
	return tx, nil
}

// CommitBlock validates every transaction in the block and applies the
// writes of the valid ones, preserving in-order MVCC semantics: a
// transaction that reads a key written earlier in the same block is
// invalidated exactly as if the block had been processed one transaction
// at a time. On a multi-core host a multi-transaction block takes the
// parallel committer — signature verification across transactions, and
// write-set application across transactions that touch disjoint keys run
// concurrently — with verdicts identical to the serial committer's.
func (p *Peer) CommitBlock(block *ledger.Block) error {
	return p.commitWith(block, nil, runtime.GOMAXPROCS(0))
}

// CommitBlockPinned is CommitBlock with endorsement checks pinned to an
// explicit verifier instead of the network's current one. Catch-up replay
// uses it to validate each historical block against the organization set
// of its committing era: a block endorsed by a since-removed org must keep
// its original verdicts when a fresh peer replays the chain, or the
// replica would diverge from every peer that committed the block live.
func (p *Peer) CommitBlockPinned(block *ledger.Block, verifier *msp.Verifier) error {
	return p.commitWith(block, verifier, runtime.GOMAXPROCS(0))
}

// commitWith commits a block using the given verifier for endorsement
// checks (nil selects the network's current verifier) and up to workers
// goroutines: the parallel committer runs only when both workers and the
// block's transaction count exceed one.
func (p *Peer) commitWith(block *ledger.Block, verifier *msp.Verifier, workers int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if verifier == nil {
		verifier = p.verifiers.Verifier()
	}
	if workers > 1 && len(block.Transactions) > 1 {
		p.commitParallel(block, workers, verifier)
	} else {
		p.commitSerial(block, verifier)
	}
	if err := p.blocks.Append(block); err != nil {
		return fmt.Errorf("peer %s: append block %d: %w", p.name, block.Number, err)
	}
	p.history.record(block)
	return nil
}

// commitSerial is the one-transaction-at-a-time commit path: the reference
// semantics, and the path of every one-transaction block.
func (p *Peer) commitSerial(block *ledger.Block, verifier *msp.Verifier) {
	// Exactly-once guard inside the block: two relays racing the same
	// logical invoke can land both copies in one batch, where the chain
	// index (which only sees committed blocks) cannot catch the second.
	seenIDs := make(map[string]struct{})
	seenKeys := make(map[string]struct{})
	for txNum, tx := range block.Transactions {
		if p.isDuplicate(tx, seenIDs, seenKeys) {
			tx.Validation = ledger.Duplicate
			continue
		}
		tx.Validation = p.validate(tx, verifier)
		if tx.Validation != ledger.Valid {
			continue
		}
		seenIDs[tx.ID] = struct{}{}
		if tx.InteropKey != "" {
			seenKeys[tx.InteropKey] = struct{}{}
		}
		p.state.ApplyWrites(tx.RWSet.StateWrites(),
			statedb.Version{BlockNum: block.Number, TxNum: uint64(txNum)})
	}
}

// overlayEntry mirrors what statedb.Version would report for a key after
// the writes of the earlier valid transactions in the block had been
// applied, without actually mutating state until scheduling is done.
type overlayEntry struct {
	exists  bool
	version statedb.Version
}

// nsKey joins a namespace and key for map indexing; U+0000 cannot appear in
// namespace names, so the join is unambiguous.
func nsKey(ns, key string) string { return ns + "\x00" + key }

// commitParallel is the concurrent commit path. It runs three stages:
//
//  1. Endorsement validation (certificate chains, ECDSA signatures,
//     policy) is position-independent, so it fans out across the worker
//     pool — this is where the commit path burns most of its CPU.
//  2. A serial in-order pass performs duplicate detection and MVCC read
//     validation against an overlay that emulates the earlier valid
//     transactions' writes, guaranteeing verdicts identical to the serial
//     committer. The same pass levels valid transactions by write-write
//     conflict: a transaction lands one level after the latest earlier
//     transaction writing any of the same namespaced keys.
//  3. Write-sets are applied level by level; transactions within a level
//     touch disjoint keys and apply concurrently.
func (p *Peer) commitParallel(block *ledger.Block, workers int, verifier *msp.Verifier) {
	txs := block.Transactions
	if workers > len(txs) {
		workers = len(txs)
	}

	// Stage 1: concurrent signature/endorsement validation.
	endorseCode := make([]ledger.ValidationCode, len(txs))
	var cursor int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&cursor, 1))
				if i >= len(txs) {
					return
				}
				endorseCode[i] = p.validateEndorsements(txs[i], verifier)
			}
		}()
	}
	wg.Wait()

	// Stage 2: serial in-order duplicate + MVCC pass, plus conflict
	// leveling of the surviving writes.
	overlay := make(map[string]overlayEntry)
	keyLevel := make(map[string]int)
	var levels [][]int
	seenIDs := make(map[string]struct{})
	seenKeys := make(map[string]struct{})
	for txNum, tx := range txs {
		if p.isDuplicate(tx, seenIDs, seenKeys) {
			tx.Validation = ledger.Duplicate
			continue
		}
		if endorseCode[txNum] != ledger.Valid {
			tx.Validation = endorseCode[txNum]
			continue
		}
		if !p.readsCurrent(tx, overlay) {
			tx.Validation = ledger.MVCCConflict
			continue
		}
		tx.Validation = ledger.Valid
		seenIDs[tx.ID] = struct{}{}
		if tx.InteropKey != "" {
			seenKeys[tx.InteropKey] = struct{}{}
		}
		ver := statedb.Version{BlockNum: block.Number, TxNum: uint64(txNum)}
		level := 0
		for i := range tx.RWSet.Writes {
			w := &tx.RWSet.Writes[i]
			nk := nsKey(w.Namespace, w.Key)
			if l := keyLevel[nk]; l > level {
				level = l
			}
			overlay[nk] = overlayEntry{exists: !w.IsDelete, version: ver}
		}
		level++
		for i := range tx.RWSet.Writes {
			keyLevel[nsKey(tx.RWSet.Writes[i].Namespace, tx.RWSet.Writes[i].Key)] = level
		}
		for len(levels) < level {
			levels = append(levels, nil)
		}
		levels[level-1] = append(levels[level-1], txNum)
	}

	// Stage 3: apply write-sets level by level; within a level all
	// write-sets are key-disjoint by construction.
	sem := make(chan struct{}, workers)
	for _, level := range levels {
		if len(level) == 1 {
			txNum := level[0]
			p.state.ApplyWrites(txs[txNum].RWSet.StateWrites(),
				statedb.Version{BlockNum: block.Number, TxNum: uint64(txNum)})
			continue
		}
		var awg sync.WaitGroup
		for _, txNum := range level {
			awg.Add(1)
			sem <- struct{}{}
			go func(txNum int) {
				defer awg.Done()
				p.state.ApplyWrites(txs[txNum].RWSet.StateWrites(),
					statedb.Version{BlockNum: block.Number, TxNum: uint64(txNum)})
				<-sem
			}(txNum)
		}
		awg.Wait()
	}
}

// readsCurrent performs the MVCC read-freshness check for the parallel
// committer: each read must observe the same existence and version it saw
// at simulation time, where "current" means committed state plus the
// overlay of earlier in-block valid writes.
func (p *Peer) readsCurrent(tx *ledger.Transaction, overlay map[string]overlayEntry) bool {
	for _, r := range tx.RWSet.Reads {
		if e, ok := overlay[nsKey(r.Namespace, r.Key)]; ok {
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

// validate applies the three commit-time checks: endorsement signature
// authenticity, endorsement policy satisfaction, and MVCC read freshness.
func (p *Peer) validate(tx *ledger.Transaction, verifier *msp.Verifier) ledger.ValidationCode {
	if code := p.validateEndorsements(tx, verifier); code != ledger.Valid {
		return code
	}
	for _, r := range tx.RWSet.Reads {
		ver, exists := p.state.Version(r.Namespace, r.Key)
		if exists != r.Exists || (exists && ver != r.Version) {
			return ledger.MVCCConflict
		}
	}
	return ledger.Valid
}

// validateEndorsements performs the position-independent commit-time
// checks: endorsement signature authenticity and endorsement policy
// satisfaction. It never touches world state, so the parallel committer
// runs it concurrently across a block's transactions.
func (p *Peer) validateEndorsements(tx *ledger.Transaction, verifier *msp.Verifier) ledger.ValidationCode {
	digest := tx.Digest()
	signers := make([]endorsement.Principal, 0, len(tx.Endorsements))
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
		if err := cryptoutil.VerifyDigest(pub, digest, en.Signature); err != nil {
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
