// Package core is the public face of the interoperability library: it
// turns a fabric.Network into an interop-enabled network (system contracts
// deployed, relay attached), drives the governance operations that
// initialize interoperation (recording foreign configurations, verification
// policies and access rules), and gives applications a Client that performs
// trusted cross-network queries end to end — the complete Fig. 2 message
// flow behind two method calls.
package core

import (
	"context"
	"crypto/ecdsa"
	"errors"
	"fmt"
	"strings"

	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/msp"
	"repro/internal/policy"
	"repro/internal/proof"
	"repro/internal/relay"
	"repro/internal/syscc"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ErrNotConfigured is returned when an interop operation needs recorded
// state (foreign config, verification policy) that is absent.
var ErrNotConfigured = errors.New("core: interoperation not configured")

// Options configures EnableInterop.
type Options struct {
	// SystemPolicy is the endorsement policy for the ECC and CMDAC
	// deployments. Empty means "OR over every organization", i.e. any
	// single org's peer may endorse system-contract reads, while
	// governance writes still pass ordering and full validation.
	SystemPolicy string
	// LedgerName is the logical ledger identifier used in query digests.
	// Empty means "default".
	LedgerName string
	// RelayOptions configures the attached relay service, e.g.
	// relay.WithRateLimit for server-side DoS protection.
	RelayOptions []relay.Option
}

// Network is an interop-enabled permissioned network: the underlying
// platform plus its relay service and driver.
type Network struct {
	Fabric *fabric.Network
	Relay  *relay.Relay
	Driver *relay.FabricDriver

	ledgerName string
}

// EnableInterop deploys the system contracts on an existing network and
// attaches a relay service, without modifying the platform itself (§3.1:
// "enabling interoperation must not require changes to existing network
// protocols").
func EnableInterop(net *fabric.Network, discovery relay.Discovery, transport relay.Transport, opts Options) (*Network, error) {
	sysPolicy := opts.SystemPolicy
	if sysPolicy == "" {
		orgs := net.OrgIDs()
		if len(orgs) == 0 {
			return nil, errors.New("core: network has no organizations")
		}
		quoted := make([]string, len(orgs))
		for i, o := range orgs {
			quoted[i] = "'" + o + "'"
		}
		if len(quoted) == 1 {
			sysPolicy = quoted[0]
		} else {
			sysPolicy = "OR(" + strings.Join(quoted, ",") + ")"
		}
	}
	if err := net.Deploy(syscc.ECCName, &syscc.ECC{}, sysPolicy); err != nil {
		return nil, fmt.Errorf("core: deploy exposure control contract: %w", err)
	}
	if err := net.Deploy(syscc.CMDACName, &syscc.CMDAC{}, sysPolicy); err != nil {
		return nil, fmt.Errorf("core: deploy config management contract: %w", err)
	}
	ledgerName := opts.LedgerName
	if ledgerName == "" {
		ledgerName = "default"
	}
	r := relay.New(net.ID(), discovery, transport, opts.RelayOptions...)
	d := relay.NewFabricDriver(net, ledgerName)
	r.RegisterDriver(net.ID(), d)
	return &Network{Fabric: net, Relay: r, Driver: d, ledgerName: ledgerName}, nil
}

// ID returns the network identifier.
func (n *Network) ID() string { return n.Fabric.ID() }

// LedgerName returns the logical ledger name used in query digests.
func (n *Network) LedgerName() string { return n.ledgerName }

// ExportConfig produces the shareable identity/topology configuration other
// networks record before interoperating with this one.
func (n *Network) ExportConfig() *wire.NetworkConfig { return n.Fabric.ExportConfig() }

// ConfigureForeignNetwork records another network's configuration on the
// local ledger through the CMDAC (a governance transaction subject to local
// consensus).
func (n *Network) ConfigureForeignNetwork(admin *fabric.Gateway, cfg *wire.NetworkConfig) error {
	if _, err := admin.Submit(syscc.CMDACName, syscc.CMDACSetNetworkConfig, cfg.Marshal()); err != nil {
		return fmt.Errorf("core: record config for %q: %w", cfg.NetworkID, err)
	}
	return nil
}

// SetVerificationPolicy records the acceptance criteria for data from a
// source network.
func (n *Network) SetVerificationPolicy(admin *fabric.Gateway, vp policy.VerificationPolicy) error {
	data, err := vp.Marshal()
	if err != nil {
		return err
	}
	if _, err := admin.Submit(syscc.CMDACName, syscc.CMDACSetVerificationPolicy, data); err != nil {
		return fmt.Errorf("core: record verification policy for %q: %w", vp.Network, err)
	}
	return nil
}

// GrantAccess records an exposure-control rule permitting a foreign
// organization to invoke a local chaincode function.
func (n *Network) GrantAccess(admin *fabric.Gateway, rule policy.AccessRule) error {
	data, err := rule.Marshal()
	if err != nil {
		return err
	}
	if _, err := admin.Submit(syscc.ECCName, syscc.ECCAddRule, data); err != nil {
		return fmt.Errorf("core: grant %s: %w", rule, err)
	}
	return nil
}

// RevokeAccess removes a previously granted exposure-control rule.
func (n *Network) RevokeAccess(admin *fabric.Gateway, rule policy.AccessRule) error {
	data, err := rule.Marshal()
	if err != nil {
		return err
	}
	if _, err := admin.Submit(syscc.ECCName, syscc.ECCRemoveRule, data); err != nil {
		return fmt.Errorf("core: revoke %s: %w", rule, err)
	}
	return nil
}

// Client is an application's handle for both local transactions and
// cross-network queries. It owns a key pair whose certificate travels with
// every query, giving the client end-to-end confidentiality: source peers
// encrypt results and proof metadata to this key (§4.3).
type Client struct {
	network  *Network
	gateway  *fabric.Gateway
	identity *msp.Identity
	key      *ecdsa.PrivateKey
	// recipient opens every response's sessioned envelopes; concurrent
	// RemoteQuery and RemoteInvoke calls share its per-session-point table.
	recipient *cryptoutil.Recipient
}

// NewClient creates a client identity named name under the given
// organization of the interop-enabled network.
func NewClient(n *Network, orgID, name string) (*Client, error) {
	org, err := n.Fabric.Org(orgID)
	if err != nil {
		return nil, err
	}
	key, err := cryptoutil.GenerateKey()
	if err != nil {
		return nil, fmt.Errorf("core: client key: %w", err)
	}
	cert, err := org.CA.IssueForKey(name, msp.RoleClient, &key.PublicKey)
	if err != nil {
		return nil, fmt.Errorf("core: client certificate: %w", err)
	}
	identity := &msp.Identity{Name: name, OrgID: orgID, Role: msp.RoleClient, Cert: cert, Key: key}
	return &Client{
		network:   n,
		gateway:   n.Fabric.Gateway(identity),
		identity:  identity,
		key:       key,
		recipient: cryptoutil.NewRecipient(key),
	}, nil
}

// Identity returns the client's MSP identity.
func (c *Client) Identity() *msp.Identity { return c.identity }

// Gateway returns the client's local-network gateway.
func (c *Client) Gateway() *fabric.Gateway { return c.gateway }

// Submit submits a local transaction. ctx gates entry: an already-expired
// context refuses the submission, but a transaction handed to the platform
// runs to completion — local consensus cannot be cancelled halfway.
func (c *Client) Submit(ctx context.Context, chaincodeName, function string, args ...[]byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: submit %s.%s: %w", chaincodeName, function, err)
	}
	return c.gateway.Submit(chaincodeName, function, args...)
}

// Evaluate runs a local read-only query. ctx gates entry. The response is
// read-only, as fabric.Gateway.Evaluate's is.
func (c *Client) Evaluate(ctx context.Context, chaincodeName, function string, args ...[]byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: evaluate %s.%s: %w", chaincodeName, function, err)
	}
	return c.gateway.Evaluate(chaincodeName, function, args...)
}

// RemoteQuerySpec addresses a cross-network query.
type RemoteQuerySpec struct {
	// Network is the source network holding the data.
	Network string
	// Contract and Function name the remote chaincode function.
	Contract string
	Function string
	// Args are the function arguments.
	Args [][]byte
	// VerificationPolicy optionally overrides the policy recorded for the
	// source network in the local CMDAC. Empty means "use the recorded
	// policy", which is the paper's initialization-time flow.
	VerificationPolicy string
	// RequestID is an optional idempotency key, meaningful for
	// RemoteInvoke: a retry after an ambiguous failure (the reply was
	// lost, but the transaction may have committed) should reuse the same
	// RequestID so the source relay replays the committed outcome instead
	// of executing the transaction a second time. Empty means the relay
	// assigns a fresh ID (returned in RemoteData.RequestID).
	RequestID string
	// Trace times the request's stages on the client and on every relay
	// it crosses, returned in RemoteData.Spans (see package trace).
	Trace bool
}

// RemoteData is the outcome of a verified cross-network query: the
// plaintext result plus the proof bundle ready to embed in a local
// transaction.
type RemoteData struct {
	// Result is the decrypted query result.
	Result []byte
	// Bundle is the decrypted proof.
	Bundle *proof.Bundle
	// BundleBytes is Bundle in transaction-argument form.
	BundleBytes []byte
	// Query echoes the query that was sent, including the generated nonce.
	Query *wire.Query
	// RequestID is the request identifier the relay assigned, as echoed in
	// the response. The query struct itself is never mutated by the relay.
	RequestID string
	// Path is the verified multi-hop route the response travelled, nearest
	// the source first — one entry per forwarding relay that signed a hop
	// pin. Empty for a direct (single-hop) answer. The chain is verified
	// structurally before the data is handed back; a response with a
	// broken, reordered or replayed pin never reaches the application.
	Path []proof.Hop
	// Spans holds a traced request's timed stages (RemoteQuerySpec.Trace):
	// each relay's, source first, then the client's own. They are unsigned
	// diagnostics, capped at wire.MaxSpans; nil when untraced.
	Spans []wire.Span
}

// RemoteQuery performs the complete trusted data transfer of Fig. 2 from
// the application's seat: it resolves the verification policy, sends the
// query through the local relay, decrypts the response, and pre-verifies
// the proof against the locally recorded source configuration before
// handing the data back. The authoritative verification still happens on
// every destination peer when the returned bundle is submitted in a
// transaction (Data Acceptance). ctx bounds the entire operation including
// the remote round-trip; its deadline travels with the query so the source
// relay inherits the remaining budget.
func (c *Client) RemoteQuery(ctx context.Context, spec RemoteQuerySpec) (*RemoteData, error) {
	ctx, err := c.traced(ctx, spec)
	if err != nil {
		return nil, err
	}
	q, policyExpr, err := c.buildQuery(ctx, spec)
	if err != nil {
		return nil, err
	}
	resp, err := c.network.Relay.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	return c.openResponse(ctx, q, resp, policyExpr)
}

// RemoteInvoke performs a cross-network transaction (the §5 extension):
// the source network executes and commits a state change on behalf of this
// authorized client, returning the committed response with the same
// attestation proof a query carries. ctx bounds the operation; failover
// stays sequential because a transaction is not idempotent.
func (c *Client) RemoteInvoke(ctx context.Context, spec RemoteQuerySpec) (*RemoteData, error) {
	ctx, err := c.traced(ctx, spec)
	if err != nil {
		return nil, err
	}
	q, policyExpr, err := c.buildQuery(ctx, spec)
	if err != nil {
		return nil, err
	}
	resp, err := c.network.Relay.Invoke(ctx, q)
	if err != nil {
		return nil, err
	}
	return c.openResponse(ctx, q, resp, policyExpr)
}

// traced returns ctx carrying a fresh trace recorder when spec asks for
// tracing, and ctx itself otherwise.
func (c *Client) traced(ctx context.Context, spec RemoteQuerySpec) (context.Context, error) {
	if !spec.Trace {
		return ctx, nil
	}
	id, err := trace.NewID()
	if err != nil {
		return nil, fmt.Errorf("core: trace id: %w", err)
	}
	return trace.NewContext(ctx, trace.New(id, c.network.ID())), nil
}

// evaluate is the gateway's EvaluateString, timed as gateway evaluation
// for a traced request.
func (c *Client) evaluate(rec *trace.Recorder, function string, args ...string) ([]byte, error) {
	start := rec.Start()
	data, err := c.gateway.EvaluateString(syscc.CMDACName, function, args...)
	rec.End(trace.GatewayEval, start)
	return data, err
}

// buildQuery resolves the verification policy (from the spec or the local
// CMDAC) and assembles the wire query with a fresh nonce.
func (c *Client) buildQuery(ctx context.Context, spec RemoteQuerySpec) (*wire.Query, string, error) {
	if err := ctx.Err(); err != nil {
		return nil, "", fmt.Errorf("core: remote request to %q: %w", spec.Network, err)
	}
	policyExpr := spec.VerificationPolicy
	if policyExpr == "" {
		data, err := c.evaluate(trace.FromContext(ctx), syscc.CMDACGetVerificationPolicy, spec.Network, spec.Contract)
		if err != nil {
			return nil, "", fmt.Errorf("%w: verification policy for %q: %v", ErrNotConfigured, spec.Network, err)
		}
		vp, err := policy.UnmarshalVerificationPolicy(data)
		if err != nil {
			return nil, "", err
		}
		policyExpr = vp.Expr
	}
	// Pin the resolved policy: the source refuses to build, and this client
	// refuses to accept, a proof under any other policy digest.
	b := &builtQuery{policy: proof.PolicySum(policyExpr)}
	if spec.RequestID != "" {
		// Idempotent retries must present the same nonce as the original
		// attempt or the replayed response's proof (which binds the
		// original nonce) would never verify.
		idempotentNonce(&b.nonce, c.key, spec.RequestID)
	} else if err := cryptoutil.ReadNonce(&b.nonce); err != nil {
		return nil, "", fmt.Errorf("core: nonce: %w", err)
	}
	b.Query = wire.Query{
		RequestID:         spec.RequestID,
		RequestingNetwork: c.network.ID(),
		TargetNetwork:     spec.Network,
		Ledger:            c.network.ledgerName,
		Contract:          spec.Contract,
		Function:          spec.Function,
		Args:              spec.Args,
		PolicyExpr:        policyExpr,
		RequesterCertPEM:  c.identity.CertPEM(),
		RequesterOrg:      c.identity.OrgID,
		Nonce:             b.nonce[:],
		PolicyDigest:      b.policy[:],
	}
	return &b.Query, policyExpr, nil
}

// builtQuery is a query with the arrays its Nonce and PolicyDigest slice,
// allocated together: building a query is one allocation.
type builtQuery struct {
	wire.Query
	nonce  [cryptoutil.NonceSize]byte
	policy [cryptoutil.DigestSize]byte
}

// idempotentNonce writes into nonce the nonce of a request under requestID,
// derived from the client's private key: deterministic for this client and
// request ID, unpredictable to anyone else. It is the first NonceSize bytes
// of SHA-256 over the private scalar's big-endian bytes without leading
// zeros, then "idempotent-nonce", then the request ID. The scalar is copied
// only into an array on the stack, cleared once it is hashed, so no copy of
// the key outlives the call.
func idempotentNonce(nonce *[cryptoutil.NonceSize]byte, key *ecdsa.PrivateKey, requestID string) {
	var scalar [66]byte // the longest NIST scalar, P-521's
	n := (key.Curve.Params().BitSize + 7) / 8
	key.D.FillBytes(scalar[:n])
	sum := cryptoutil.Sum(scalar[n-(key.D.BitLen()+7)/8:n], []byte("idempotent-nonce"), []byte(requestID))
	clear(scalar[:])
	copy(nonce[:], sum[:])
}

// openResponse decrypts the response, pre-verifies the proof, and packages
// the verified remote data.
func (c *Client) openResponse(ctx context.Context, q *wire.Query, resp *wire.QueryResponse, policyExpr string) (*RemoteData, error) {
	rec := trace.FromContext(ctx)
	// Authenticate the path before the payload: a response carrying hop
	// pins was forwarded, and the whole chain must verify against this
	// query and this response's core bytes. The origin relay has already
	// checked the outermost pin names the hub it actually used; this
	// client-side pass re-checks structure end to end.
	start := rec.Start()
	path, err := proof.VerifyHopChain(q, resp)
	rec.End(trace.PinVerify, start)
	if err != nil {
		return nil, err
	}
	start = rec.Start()
	bundle, err := proof.OpenResponse(c.recipient, q, resp)
	rec.End(trace.Open, start)
	if err != nil {
		return nil, err
	}
	if err := c.preVerify(rec, q, bundle, policyExpr); err != nil {
		return nil, err
	}
	return &RemoteData{
		Result:      bundle.Result,
		Bundle:      bundle,
		BundleBytes: bundle.Marshal(),
		Query:       q,
		RequestID:   resp.RequestID,
		Path:        path,
		Spans:       rec.Spans(),
	}, nil
}

// preVerify checks the proof client-side against the locally recorded
// source configuration, failing fast before a doomed transaction is
// submitted. A source with no recorded configuration is not an error here —
// the destination peers will reject the transaction anyway — but any other
// failure to read the configuration is: it must not silently skip the check.
func (c *Client) preVerify(rec *trace.Recorder, q *wire.Query, bundle *proof.Bundle, policyExpr string) error {
	cfgBytes, err := c.evaluate(rec, syscc.CMDACGetNetworkConfig, q.TargetNetwork)
	if errors.Is(err, syscc.ErrNoConfig) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("core: read recorded config of %q: %w", q.TargetNetwork, err)
	}
	defer rec.End(trace.Verify, rec.Start())
	verifier, err := msp.VerifierForConfig(cfgBytes)
	if err != nil {
		return err
	}
	vp := policy.VerificationPolicy{Network: q.TargetNetwork, Expr: policyExpr}
	compiled, err := vp.Compile()
	if err != nil {
		return err
	}
	// q.PolicyDigest is the digest of policyExpr, pinned by buildQuery, and
	// bundle.QueryDigest is QueryDigestOf(q), which OpenResponse computed
	// for this op and bound every attestation to.
	return proof.Verify(bundle, verifier, compiled, bundle.QueryDigest, q.PolicyDigest)
}

// SubmitWithRemoteData submits a local transaction whose arguments include
// verified remote data (Fig. 2 step 10). The destination chaincode is
// expected to pass the bundle to the CMDAC for Data Acceptance validation.
func (c *Client) SubmitWithRemoteData(ctx context.Context, chaincodeName, function string, data *RemoteData, extraArgs ...[]byte) ([]byte, error) {
	args := make([][]byte, 0, 1+len(extraArgs))
	args = append(args, data.BundleBytes)
	args = append(args, extraArgs...)
	return c.Submit(ctx, chaincodeName, function, args...)
}

// SubscribeRemoteEvents subscribes to committed chaincode events on a
// remote network (the §7 cross-network events extension). Matching events
// are pushed back through this network's relay. ctx bounds subscription
// establishment only; cancel releases the subscription.
func (c *Client) SubscribeRemoteEvents(ctx context.Context, targetNetwork, eventName string) (<-chan wire.Event, func(), error) {
	return c.network.Relay.SubscribeRemote(ctx, targetNetwork, eventName, c.identity.CertPEM())
}
