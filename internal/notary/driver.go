package notary

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/endorsement"
	"repro/internal/msp"
	"repro/internal/proof"
	"repro/internal/relay"
	"repro/internal/wire"
)

// Driver adapts a notary network to the relay's Driver interface,
// demonstrating the paper's extensibility claim: the relay service and
// wire protocol are reused unmodified; this file is the entirety of the
// platform-specific work.
type Driver struct {
	net        *Network
	ledgerName string
	// builder seals every proof under sessioned ECIES, as the Fabric
	// driver's does; cryptoOps feeds relay.Stats through CryptoOps.
	builder   *proof.Builder
	cryptoOps cryptoutil.OpCounter
}

var _ relay.Driver = (*Driver)(nil)
var _ relay.CryptoOpsReporter = (*Driver)(nil)

// NewDriver creates a relay driver for a notary network.
func NewDriver(net *Network, ledgerName string) *Driver {
	if ledgerName == "" {
		ledgerName = "default"
	}
	d := &Driver{net: net, ledgerName: ledgerName}
	d.builder = proof.NewBuilder(cryptoutil.DefaultSessionTTL, &d.cryptoOps)
	return d
}

// CryptoOps implements relay.CryptoOpsReporter.
func (d *Driver) CryptoOps() (ecdh, sign, encrypt uint64) {
	return d.cryptoOps.ECDHOps(), d.cryptoOps.SignOps(), d.cryptoOps.EncryptOps()
}

// Platform implements relay.Driver.
func (d *Driver) Platform() string { return "notary" }

// ServeQuery implements relay.Driver: Query's response, encoded without
// its request ID, which the relay stamps as it writes the reply.
func (d *Driver) ServeQuery(ctx context.Context, q *wire.Query) ([]byte, error) {
	resp, err := d.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	resp.RequestID = ""
	return resp.Marshal(), nil
}

// Query answers a cross-network query: authenticate and authorize the requester,
// execute the view function, and collect an attestation from every notary
// the verification policy names. ctx is checked before the view executes
// and between notary attestations.
func (d *Driver) Query(ctx context.Context, q *wire.Query) (*wire.QueryResponse, error) {
	if q.Ledger != "" && q.Ledger != d.ledgerName {
		return nil, fmt.Errorf("notary: unknown ledger %q", q.Ledger)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("notary: query aborted: %w", err)
	}
	vp, err := endorsement.Parse(q.PolicyExpr)
	if err != nil {
		return nil, fmt.Errorf("notary: verification policy: %w", err)
	}
	// Exposure control: platform-level rather than chaincode-level, as the
	// paper anticipates for Corda-style platforms.
	if _, err := d.net.Authorize(q.RequestingNetwork, q.RequesterCertPEM, q.Contract, q.Function); err != nil {
		return nil, err
	}
	clientPub, err := msp.PublicKeyFromPEM(q.RequesterCertPEM)
	if err != nil {
		return nil, err
	}
	result, err := d.net.View(q.Contract, q.Function, q.Args)
	if err != nil {
		return nil, err
	}

	// The same pin gate the Fabric driver applies: a query whose explicit
	// policy digest disagrees with its expression gets no proof at all —
	// notaries must never sign a requester-chosen pin for a policy that did
	// not select them.
	policyDigest, err := proof.PinnedPolicyDigest(q)
	if err != nil {
		return nil, err
	}
	wanted := make(map[string]bool)
	for _, org := range vp.Orgs() {
		wanted[org] = true
	}
	var attestors []*msp.Identity
	for _, notary := range d.net.Notaries() {
		if wanted[notary.OrgID] {
			attestors = append(attestors, notary.Identity)
		}
	}
	if len(attestors) == 0 {
		return nil, fmt.Errorf("notary: no notaries match verification policy %q", q.PolicyExpr)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("notary: query aborted: %w", err)
	}
	spec := proof.Spec{
		NetworkID:      d.net.ID(),
		QueryDigest:    proof.QueryDigestOf(q),
		PolicyDigest:   policyDigest,
		Result:         result,
		Nonce:          q.Nonce,
		ClientPub:      clientPub,
		RequesterLabel: string(cryptoutil.Digest(q.RequesterCertPEM)),
		Now:            time.Now(),
	}
	resps, err := d.builder.Build(ctx, []proof.Spec{spec}, attestors)
	if err != nil {
		return nil, fmt.Errorf("notary: %w", err)
	}
	resp := resps[0]
	resp.RequestID = q.RequestID
	return resp, nil
}
