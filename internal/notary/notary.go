// Package notary implements a second, deliberately different ledger
// platform in the mold of Corda (§5 "generalization and extensibility"):
// instead of organizations of peers replicating chaincode, independent
// notary services attest facts held in a shared vault, and uniqueness
// (no-double-spend) is enforced through per-key versions checked at
// notarization time. The interop relay and wire protocol are reused
// verbatim for this platform — only the driver and the platform-side
// enforcement of exposure control are specific to it, exactly as the paper
// predicts for Corda and Quorum.
package notary

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/msp"
	"repro/internal/policy"
	"repro/internal/wire"
)

var (
	// ErrVersionConflict is returned when an update presents a stale
	// expected version — the notary-enforced uniqueness property.
	ErrVersionConflict = errors.New("notary: version conflict")
	// ErrUnknownView is returned for queries against unregistered view
	// functions.
	ErrUnknownView = errors.New("notary: unknown view function")
	// ErrAccessDenied is returned when exposure-control rules do not
	// permit a foreign request.
	ErrAccessDenied = errors.New("notary: access denied")
	// ErrNotFound is returned for reads of absent facts.
	ErrNotFound = errors.New("notary: fact not found")
)

// Notary is one attesting service: an organization-equivalent with its own
// CA and signing identity. Notary identities carry the peer role so that
// destination networks can validate their attestations with the same
// verification machinery used for Fabric peers.
type Notary struct {
	OrgID    string
	CA       *msp.CA
	Identity *msp.Identity
}

// fact is a versioned vault entry.
type fact struct {
	value   []byte
	version uint64
}

// ViewFunc serves a named read-only query over the vault.
type ViewFunc func(vault ReadVault, args [][]byte) ([]byte, error)

// ReadVault is the read-only vault interface handed to view functions.
type ReadVault interface {
	// Get returns a fact's value, or ErrNotFound.
	Get(key string) ([]byte, error)
}

// Network is a notary-attested ledger network.
type Network struct {
	id string

	mu       sync.RWMutex
	notaries []*Notary
	vault    map[string]fact
	views    map[string]ViewFunc // "contract/function" -> view
	rules    policy.RuleSet
	foreign  map[string][]byte // networkID -> recorded wire.NetworkConfig bytes
}

// NewNetwork creates an empty notary network.
func NewNetwork(id string) *Network {
	return &Network{
		id:      id,
		vault:   make(map[string]fact),
		views:   make(map[string]ViewFunc),
		foreign: make(map[string][]byte),
	}
}

// ID returns the network identifier.
func (n *Network) ID() string { return n.id }

// AddNotary creates a notary service under a fresh organization CA.
func (n *Network) AddNotary(orgID string) (*Notary, error) {
	ca, err := msp.NewCA(orgID)
	if err != nil {
		return nil, fmt.Errorf("notary: CA for %s: %w", orgID, err)
	}
	identity, err := ca.Issue(orgID+"-notary0", msp.RolePeer)
	if err != nil {
		return nil, fmt.Errorf("notary: identity for %s: %w", orgID, err)
	}
	notary := &Notary{OrgID: orgID, CA: ca, Identity: identity}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.notaries = append(n.notaries, notary)
	return notary, nil
}

// Notaries returns the attesting services.
func (n *Network) Notaries() []*Notary {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]*Notary, len(n.notaries))
	copy(out, n.notaries)
	return out
}

// Update notarizes a fact write. expectedVersion must match the current
// version (0 for a new fact); the notary set rejects stale writes, which is
// the platform's uniqueness consensus.
func (n *Network) Update(key string, expectedVersion uint64, value []byte) (uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	current := n.vault[key]
	if current.version != expectedVersion {
		return current.version, fmt.Errorf("%w: key %q at version %d, expected %d",
			ErrVersionConflict, key, current.version, expectedVersion)
	}
	stored := make([]byte, len(value))
	copy(stored, value)
	n.vault[key] = fact{value: stored, version: expectedVersion + 1}
	return expectedVersion + 1, nil
}

// Get returns a fact's value and version.
func (n *Network) Get(key string) ([]byte, uint64, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	f, ok := n.vault[key]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	out := make([]byte, len(f.value))
	copy(out, f.value)
	return out, f.version, nil
}

// vaultReader implements ReadVault under the network lock.
type vaultReader struct{ n *Network }

func (v vaultReader) Get(key string) ([]byte, error) {
	data, _, err := v.n.Get(key)
	return data, err
}

// RegisterView exposes a named query function, addressed as
// contract/function by cross-network queries.
func (n *Network) RegisterView(contract, function string, view ViewFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.views[contract+"/"+function] = view
}

// View executes a registered view function.
func (n *Network) View(contract, function string, args [][]byte) ([]byte, error) {
	n.mu.RLock()
	view, ok := n.views[contract+"/"+function]
	n.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrUnknownView, contract, function)
	}
	return view(vaultReader{n: n}, args)
}

// Grant records an exposure-control rule in the network parameters (the
// platform's equivalent of the ECC rule store).
func (n *Network) Grant(rule policy.AccessRule) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rules.Add(rule)
}

// Revoke removes an exposure-control rule.
func (n *Network) Revoke(rule policy.AccessRule) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rules.Remove(rule)
}

// RecordForeignConfig stores a foreign network's configuration for
// requester authentication (the platform's configuration-management role).
func (n *Network) RecordForeignConfig(cfg *wire.NetworkConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.foreign[cfg.NetworkID] = cfg.Marshal()
}

// Authorize authenticates a foreign requester certificate against the
// recorded configuration of its network and evaluates the access rules,
// returning the requester's organization.
func (n *Network) Authorize(requestingNetwork string, certPEM []byte, contract, function string) (string, error) {
	n.mu.RLock()
	cfgBytes, ok := n.foreign[requestingNetwork]
	n.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("%w: no recorded configuration for %q", ErrAccessDenied, requestingNetwork)
	}
	verifier, err := msp.VerifierForConfig(cfgBytes)
	if err != nil {
		return "", err
	}
	info, err := verifier.VerifyPEM(certPEM)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrAccessDenied, err)
	}
	n.mu.RLock()
	permitted := n.rules.Permits(requestingNetwork, info.OrgID, contract, function)
	n.mu.RUnlock()
	if !permitted {
		return "", fmt.Errorf("%w: no rule permits <%s, %s, %s, %s>",
			ErrAccessDenied, requestingNetwork, info.OrgID, contract, function)
	}
	return info.OrgID, nil
}

// ExportConfig produces the shareable configuration destination networks
// record before accepting proofs from this one: each notary appears as an
// organization anchored by its CA root.
func (n *Network) ExportConfig() *wire.NetworkConfig {
	n.mu.RLock()
	defer n.mu.RUnlock()
	cfg := &wire.NetworkConfig{NetworkID: n.id, Platform: "notary"}
	for _, notary := range n.notaries {
		cfg.Orgs = append(cfg.Orgs, wire.OrgConfig{
			OrgID:       notary.OrgID,
			RootCertPEM: notary.CA.RootCertPEM(),
			PeerNames:   []string{notary.Identity.Name},
		})
	}
	return cfg
}
