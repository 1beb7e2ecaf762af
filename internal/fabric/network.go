// Package fabric assembles the substrates into a runnable permissioned
// network in the Hyperledger Fabric mold: organizations with their own CAs
// and peers, a shared chaincode registry, per-chaincode endorsement
// policies, a solo ordering service, and a gateway SDK for clients. This is
// the platform on which the paper's STL and SWT networks run (§4).
package fabric

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/chaincode"
	"repro/internal/cryptoutil"
	"repro/internal/endorsement"
	"repro/internal/ledger"
	"repro/internal/msp"
	"repro/internal/orderer"
	"repro/internal/peer"
	"repro/internal/wire"
)

var (
	// ErrOrgExists is returned when adding a duplicate organization.
	ErrOrgExists = errors.New("fabric: organization already exists")
	// ErrUnknownOrg is returned for lookups of absent organizations.
	ErrUnknownOrg = errors.New("fabric: unknown organization")
	// ErrNotDeployed is returned when invoking an undeployed chaincode.
	ErrNotDeployed = errors.New("fabric: chaincode not deployed")
	// ErrNoEndorsers is returned when no peer can endorse a proposal.
	ErrNoEndorsers = errors.New("fabric: no endorsing peers available")
	// ErrTxInvalidated is returned when a submitted transaction fails
	// commit-time validation.
	ErrTxInvalidated = errors.New("fabric: transaction invalidated")
)

// Org is one organization of the network: a CA plus its peers.
type Org struct {
	ID    string
	CA    *msp.CA
	Peers []*peer.Peer
}

// Network is a single-channel permissioned blockchain network.
type Network struct {
	id string

	mu       sync.RWMutex
	orgs     map[string]*Org
	orgOrder []string
	// peers is every peer in organization order, rebuilt whenever the
	// organization set changes and never modified, so AllPeers hands it
	// out as it is.
	peers    []*peer.Peer
	policies map[string]*endorsement.Policy
	verifier *msp.Verifier
	// eras records every verifier the network has had and the chain height
	// it took effect at, so a later catch-up can re-validate each historic
	// block against the verifier of its committing era (verifierAt) instead
	// of the current one — without this, a catch-up after RemoveOrg would
	// re-validate transactions the removed org endorsed against a verifier
	// that no longer trusts its root and flip their verdicts to failed.
	eras []verifierEra

	registry *chaincode.Registry
	ord      *orderer.Orderer

	// commitMu serializes block delivery against org catch-up; it is
	// always acquired before mu when both are needed. Its read side is
	// AtOneHeight's: simulations that must agree hold delivery off.
	commitMu sync.RWMutex
	// verdicts is deliver's verdict slice, one entry per (peer,
	// transaction) pair, reused from block to block under commitMu.
	verdicts []ledger.ValidationCode

	eventMu   sync.Mutex
	eventSubs map[int]*eventSub
	nextSubID int
}

type eventSub struct {
	chaincodeName string
	eventName     string
	ch            chan ledger.ChaincodeEvent
}

// verifierEra is one entry of the network's verifier history: the
// verifier that governed validation of every block committed at height
// fromHeight or later, until the next era begins.
type verifierEra struct {
	fromHeight uint64
	verifier   *msp.Verifier
}

// NewNetwork creates an empty network with the given identifier and orderer
// configuration.
func NewNetwork(id string, ordCfg orderer.Config) *Network {
	n := &Network{
		id:        id,
		orgs:      make(map[string]*Org),
		policies:  make(map[string]*endorsement.Policy),
		registry:  chaincode.NewRegistry(),
		ord:       orderer.New(ordCfg),
		eventSubs: make(map[int]*eventSub),
	}
	// The network is the orderer's sole consumer: it fans blocks out to
	// every peer, then dispatches chaincode events from validated
	// transactions.
	n.ord.Register(orderer.ConsumerFunc(n.commitBlock))
	return n
}

// ID returns the network identifier.
func (n *Network) ID() string { return n.id }

// Orderer exposes the ordering service (for Stop and advanced
// configuration).
func (n *Network) Orderer() *orderer.Orderer { return n.ord }

// AddOrg creates an organization with its CA and the given number of peers.
// Organizations may join a network that has already committed blocks: the
// new peers catch up by replaying the chain from an existing peer before
// they start receiving live blocks (the state-transfer role gossip plays in
// Fabric). Block delivery is quiesced (commitMu) for the duration so no
// block can slip between replay and registration.
func (n *Network) AddOrg(orgID string, peerCount int) (*Org, error) {
	ca, err := msp.NewCA(orgID)
	if err != nil {
		return nil, fmt.Errorf("fabric: create CA for %s: %w", orgID, err)
	}
	org := &Org{ID: orgID, CA: ca}
	for i := 0; i < peerCount; i++ {
		identity, err := ca.Issue(fmt.Sprintf("%s-peer%d", orgID, i), msp.RolePeer)
		if err != nil {
			return nil, fmt.Errorf("fabric: issue peer identity: %w", err)
		}
		org.Peers = append(org.Peers, peer.New(identity, n.registry, n, n))
	}

	n.commitMu.Lock()
	defer n.commitMu.Unlock()
	if err := n.catchUp(org.Peers); err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.orgs[orgID]; exists {
		return nil, fmt.Errorf("%w: %s", ErrOrgExists, orgID)
	}
	n.orgs[orgID] = org
	n.orgOrder = append(n.orgOrder, orgID)
	n.rebuildPeersLocked()
	if err := n.rebuildVerifierLocked(n.chainHeightLocked()); err != nil {
		return nil, err
	}
	return org, nil
}

// RemoveOrg removes an organization from the network: its peers stop
// serving, its identity root leaves the verifier, and endorsement or
// attestation policies naming it can no longer be satisfied locally. The
// chain the removed peers helped build remains committed on the surviving
// peers — which is exactly the scenario proof-carrying commits exist for:
// a proof persisted before the removal still verifies against the source
// configuration the destination recorded, while a fresh proof under the
// shrunk peer set cannot satisfy the old policy.
func (n *Network) RemoveOrg(orgID string) error {
	n.commitMu.Lock()
	defer n.commitMu.Unlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.orgs[orgID]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownOrg, orgID)
	}
	// Capture the height before the org leaves: the departing org's peers
	// may be the only remaining block source, and the new era begins at
	// whatever height the chain had reached when the trust set shrank.
	height := n.chainHeightLocked()
	delete(n.orgs, orgID)
	for i, id := range n.orgOrder {
		if id == orgID {
			n.orgOrder = append(n.orgOrder[:i], n.orgOrder[i+1:]...)
			break
		}
	}
	n.rebuildPeersLocked()
	return n.rebuildVerifierLocked(height)
}

// catchUp replays every committed block from an existing peer into fresh
// peers so they join at the current height. Each block is re-validated
// against the verifier of its committing era (verifierAt), not the
// current one: validation is deterministic only relative to a verifier and
// an org set, and the org set may have changed (RemoveOrg) since a block
// committed. A fresh peer whose verdicts still differ from the recorded
// ones fails the catch-up (peer.ErrVerdictMismatch) rather than rewrite
// them. Callers hold commitMu (so the chain cannot advance) but not mu
// (verifierAt takes mu's read lock per block).
func (n *Network) catchUp(fresh []*peer.Peer) error {
	n.mu.RLock()
	var source *peer.Peer
	for _, orgID := range n.orgOrder {
		if peers := n.orgs[orgID].Peers; len(peers) > 0 {
			source = peers[0]
			break
		}
	}
	n.mu.RUnlock()
	if source == nil {
		return nil // first organization: nothing to replay
	}
	height := source.Blocks().Height()
	for num := uint64(0); num < height; num++ {
		block, err := source.Blocks().Block(num)
		if err != nil {
			return fmt.Errorf("fabric: catch-up read block %d: %w", num, err)
		}
		if err := n.deliver(fresh, block, n.verifierAt(num)); err != nil {
			return fmt.Errorf("fabric: catch-up replay block %d: %w", num, err)
		}
	}
	return nil
}

// chainHeightLocked returns the committed chain height as seen by any
// current peer (every peer holds the full chain). Callers hold mu.
func (n *Network) chainHeightLocked() uint64 {
	for _, orgID := range n.orgOrder {
		if peers := n.orgs[orgID].Peers; len(peers) > 0 {
			return peers[0].Blocks().Height()
		}
	}
	return 0
}

// verifierAt returns the verifier that governed validation of block num:
// the latest era whose fromHeight does not exceed num. Eras are appended
// with non-decreasing fromHeight, so the last match wins. It returns the
// current verifier if no era is recorded.
func (n *Network) verifierAt(num uint64) *msp.Verifier {
	n.mu.RLock()
	defer n.mu.RUnlock()
	v := n.verifier
	for _, era := range n.eras {
		if era.fromHeight <= num {
			v = era.verifier
		}
	}
	return v
}

// rebuildVerifierLocked rebuilds the current verifier from the present
// org set and records it as the era governing blocks committed at
// fromHeight and later. Callers hold mu.
func (n *Network) rebuildVerifierLocked(fromHeight uint64) error {
	roots := make(map[string][]byte, len(n.orgs))
	for id, org := range n.orgs {
		roots[id] = org.CA.RootCertPEM()
	}
	v, err := msp.NewVerifier(roots)
	if err != nil {
		return fmt.Errorf("fabric: rebuild verifier: %w", err)
	}
	n.verifier = v
	n.eras = append(n.eras, verifierEra{fromHeight: fromHeight, verifier: v})
	return nil
}

// rebuildPeersLocked rebuilds the peer list from the present org set, in
// a slice of its own with no spare capacity, so a caller appending to
// what AllPeers returned copies it. Callers hold mu.
func (n *Network) rebuildPeersLocked() {
	var peers []*peer.Peer
	for _, orgID := range n.orgOrder {
		peers = append(peers, n.orgs[orgID].Peers...)
	}
	n.peers = slices.Clip(peers)
}

// Verifier implements peer.VerifierProvider with the network's current
// organization roots.
func (n *Network) Verifier() *msp.Verifier {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.verifier
}

// PolicyFor implements peer.PolicyProvider.
func (n *Network) PolicyFor(chaincodeName string) *endorsement.Policy {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.policies[chaincodeName]
}

// Deploy installs a chaincode on every peer under the given endorsement
// policy expression. Re-deploying an existing name upgrades it.
func (n *Network) Deploy(name string, cc chaincode.Chaincode, policyExpr string) error {
	policy, err := endorsement.Parse(policyExpr)
	if err != nil {
		return fmt.Errorf("fabric: deploy %s: %w", name, err)
	}
	n.mu.Lock()
	n.policies[name] = policy
	n.mu.Unlock()
	n.registry.Register(name, cc)
	return nil
}

// Org returns an organization by ID.
func (n *Network) Org(orgID string) (*Org, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	org, ok := n.orgs[orgID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownOrg, orgID)
	}
	return org, nil
}

// OrgIDs returns organization IDs in creation order.
func (n *Network) OrgIDs() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, len(n.orgOrder))
	copy(out, n.orgOrder)
	return out
}

// PeersOf returns the peers of one organization.
func (n *Network) PeersOf(orgID string) ([]*peer.Peer, error) {
	org, err := n.Org(orgID)
	if err != nil {
		return nil, err
	}
	out := make([]*peer.Peer, len(org.Peers))
	copy(out, org.Peers)
	return out, nil
}

// FirstPeerOf returns the first peer of one organization, or nil when the
// organization is unknown or has no peer. Callers that want one peer of an
// organization, as endorsers and attestors do, read it under the lock
// instead of copying PeersOf.
func (n *Network) FirstPeerOf(orgID string) *peer.Peer {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if org, ok := n.orgs[orgID]; ok && len(org.Peers) > 0 {
		return org.Peers[0]
	}
	return nil
}

// AllPeers returns every peer in the network, grouped by organization
// creation order. The list is shared and read-only: it is the network's
// own, replaced, not changed, when an organization joins or leaves.
func (n *Network) AllPeers() []*peer.Peer {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.peers
}

// ExportConfig produces the network's shareable configuration (identity
// roots and topology), the artifact another network records via its
// Configuration Management contract before interoperating (§3.3).
func (n *Network) ExportConfig() *wire.NetworkConfig {
	n.mu.RLock()
	defer n.mu.RUnlock()
	cfg := &wire.NetworkConfig{NetworkID: n.id, Platform: "fabric"}
	for _, orgID := range n.orgOrder {
		org := n.orgs[orgID]
		oc := wire.OrgConfig{OrgID: orgID, RootCertPEM: org.CA.RootCertPEM()}
		for _, p := range org.Peers {
			oc.PeerNames = append(oc.PeerNames, p.Name())
		}
		cfg.Orgs = append(cfg.Orgs, oc)
	}
	return cfg
}

// commitBlock delivers an ordered block to every peer, then dispatches
// chaincode events from transactions that committed as valid. commitMu
// serializes delivery against organization catch-up (AddOrg) and so keeps
// the verifier fixed while the block is checked.
func (n *Network) commitBlock(block *ledger.Block) error {
	n.commitMu.Lock()
	defer n.commitMu.Unlock()
	if err := n.deliver(n.AllPeers(), block, n.Verifier()); err != nil {
		return err
	}
	n.dispatchEvents(block)
	return nil
}

// deliver commits block on peers in two stages. Every peer checks every
// endorsement it did not sign itself, but all (peer, transaction) pairs share one bounded
// pool (peer.CheckEndorsements), as Fabric's peers each check a delivered
// block at the same time. Then each peer commits its own verdicts in order,
// one peer after another, and the first error stops delivery. Callers hold
// commitMu.
func (n *Network) deliver(peers []*peer.Peer, block *ledger.Block, verifier *msp.Verifier) error {
	txs := len(block.Transactions)
	n.verdicts = slices.Grow(n.verdicts[:0], len(peers)*txs)
	verdicts := n.verdicts[:len(peers)*txs]
	peer.CheckEndorsements(peers, block, verifier, verdicts)
	for i, p := range peers {
		if err := p.CommitChecked(block, verdicts[i*txs:(i+1)*txs]); err != nil {
			return err
		}
	}
	return nil
}

// AtOneHeight runs fn with block delivery held off, so every peer fn
// simulates against sits at the same committed height. commitBlock checks
// a block on every peer at once but commits it one peer at a time;
// endorsers of one proposal (or attestors of one query) that straddled
// the commits would read two heights and disagree over a concurrent write,
// not over anything the chaincode did. fn must not order or commit:
// delivery waits for it.
func (n *Network) AtOneHeight(fn func() error) error {
	n.commitMu.RLock()
	defer n.commitMu.RUnlock()
	return fn()
}

func (n *Network) dispatchEvents(block *ledger.Block) {
	n.eventMu.Lock()
	defer n.eventMu.Unlock()
	if len(n.eventSubs) == 0 {
		return
	}
	// One commit timestamp for the whole block: events are ordered by
	// commit, and stamping per-event would invent an ordering inside the
	// block that the ledger does not define.
	committed := uint64(time.Now().UnixNano())
	for _, tx := range block.Transactions {
		if tx.Validation != ledger.Valid || tx.Event == nil {
			continue
		}
		ev := *tx.Event
		ev.UnixNano = committed
		for _, sub := range n.eventSubs {
			if sub.chaincodeName != "" && sub.chaincodeName != ev.Chaincode {
				continue
			}
			if sub.eventName != "" && sub.eventName != ev.Name {
				continue
			}
			select {
			case sub.ch <- ev:
			default: // slow subscriber: drop rather than stall commits
			}
		}
	}
}

// EventSubscription is a live chaincode event feed.
type EventSubscription struct {
	// C receives events from transactions that commit as valid.
	C      <-chan ledger.ChaincodeEvent
	cancel func()
}

// Cancel tears the subscription down.
func (s *EventSubscription) Cancel() { s.cancel() }

// SubscribeEvents returns a feed of committed chaincode events. Empty
// chaincodeName or eventName match everything.
func (n *Network) SubscribeEvents(chaincodeName, eventName string) *EventSubscription {
	n.eventMu.Lock()
	defer n.eventMu.Unlock()
	id := n.nextSubID
	n.nextSubID++
	sub := &eventSub{
		chaincodeName: chaincodeName,
		eventName:     eventName,
		ch:            make(chan ledger.ChaincodeEvent, 64),
	}
	n.eventSubs[id] = sub
	return &EventSubscription{
		C: sub.ch,
		cancel: func() {
			n.eventMu.Lock()
			defer n.eventMu.Unlock()
			delete(n.eventSubs, id)
		},
	}
}

// Gateway returns a client handle bound to an identity, mirroring the
// Fabric gateway SDK applications program against.
func (n *Network) Gateway(identity *msp.Identity) *Gateway {
	return &Gateway{net: n, identity: identity}
}

// Gateway submits transactions and evaluates queries on behalf of one
// client identity.
type Gateway struct {
	net      *Network
	identity *msp.Identity
}

// Identity returns the client identity the gateway is bound to.
func (g *Gateway) Identity() *msp.Identity { return g.identity }

// Network returns the underlying network.
func (g *Gateway) Network() *Network { return g.net }

// newTxID produces a fresh transaction identifier.
func newTxID() (string, error) { return cryptoutil.NewNonceHex(cryptoutil.NonceSize) }

// Submit runs the full endorse-order-validate-commit pipeline and returns
// the chaincode response. It returns ErrTxInvalidated (wrapped with the
// validation code) if commit-time validation rejects the transaction.
func (g *Gateway) Submit(ccName, function string, args ...[]byte) ([]byte, error) {
	tx, err := g.SubmitTx(ccName, function, args...)
	if err != nil {
		return nil, err
	}
	return tx.Response, nil
}

// SubmitString is Submit with string arguments.
func (g *Gateway) SubmitString(ccName, function string, args ...string) ([]byte, error) {
	return g.Submit(ccName, function, bytesArgs(args)...)
}

// SubmitTx is Submit returning the full committed transaction.
func (g *Gateway) SubmitTx(ccName, function string, args ...[]byte) (*ledger.Transaction, error) {
	policy := g.net.PolicyFor(ccName)
	if policy == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotDeployed, ccName)
	}
	txID, err := newTxID()
	if err != nil {
		return nil, fmt.Errorf("fabric: generate tx id: %w", err)
	}
	inv := chaincode.Invocation{
		TxID:        txID,
		Chaincode:   ccName,
		Function:    function,
		Args:        args,
		CreatorCert: g.identity.CertPEM(),
		Timestamp:   time.Now(),
	}
	// One peer of each organization the policy references endorses.
	// Organizations absent from this network are skipped; the commit-time
	// policy check is the final arbiter. The usual endorser count fits on
	// the stack.
	var room [4]*peer.ProposalResponse
	responses := room[:0]
	if err := g.net.AtOneHeight(func() error {
		for _, orgID := range policy.Orgs() {
			p := g.net.FirstPeerOf(orgID)
			if p == nil {
				continue
			}
			resp, err := p.Endorse(inv)
			if err != nil {
				return err
			}
			responses = append(responses, resp)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if len(responses) == 0 {
		return nil, ErrNoEndorsers
	}
	tx, err := peer.AssembleTransaction(inv, responses)
	if err != nil {
		return nil, err
	}
	// SubmitWait returns once the block carrying tx is delivered, so the
	// caller always observes a final validation code.
	if _, err := g.net.ord.SubmitWait(tx); err != nil {
		return nil, fmt.Errorf("fabric: order tx: %w", err)
	}
	if tx.Validation != ledger.Valid {
		return tx, fmt.Errorf("%w: %s", ErrTxInvalidated, tx.Validation)
	}
	return tx, nil
}

// Evaluate runs a read-only query against a single peer of the client's
// organization (falling back to any peer) without creating a transaction.
// An evaluation is never ordered, so it carries no transaction ID. The
// response is read-only: it may be a committed value itself (see
// peer.Query).
func (g *Gateway) Evaluate(ccName, function string, args ...[]byte) ([]byte, error) {
	p := g.queryPeer()
	if p == nil {
		return nil, ErrNoEndorsers
	}
	inv := g.evaluation(ccName, function)
	inv.Args = args
	return p.Query(inv)
}

// EvaluateString is Evaluate with string arguments, passed to the
// chaincode as read-only views of the strings, not copies
// (peer.QueryStrings).
func (g *Gateway) EvaluateString(ccName, function string, args ...string) ([]byte, error) {
	p := g.queryPeer()
	if p == nil {
		return nil, ErrNoEndorsers
	}
	return p.QueryStrings(g.evaluation(ccName, function), args...)
}

// evaluation is the invocation of an evaluation, without its arguments.
func (g *Gateway) evaluation(ccName, function string) chaincode.Invocation {
	return chaincode.Invocation{
		Chaincode:   ccName,
		Function:    function,
		CreatorCert: g.identity.CertPEM(),
		Timestamp:   time.Now(),
		ReadOnly:    true,
	}
}

func (g *Gateway) queryPeer() *peer.Peer {
	if p := g.net.FirstPeerOf(g.identity.OrgID); p != nil {
		return p
	}
	all := g.net.AllPeers()
	if len(all) == 0 {
		return nil
	}
	return all[0]
}

func bytesArgs(args []string) [][]byte {
	out := make([][]byte, len(args))
	for i, a := range args {
		out[i] = []byte(a)
	}
	return out
}
