package relay

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"encoding/hex"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/chaincode"
	"repro/internal/cryptoutil"
	"repro/internal/endorsement"
	"repro/internal/fabric"
	"repro/internal/ledger"
	"repro/internal/msp"
	"repro/internal/peer"
	"repro/internal/proof"
	"repro/internal/trace"
	"repro/internal/wire"
)

var (
	// ErrDivergentResults is returned when peers selected for a proof
	// disagree on the query result, i.e. there is no consensus view to
	// attest.
	ErrDivergentResults = errors.New("relay: peers returned divergent results")
	// ErrNoAttestors is returned when no peer can satisfy any part of the
	// verification policy.
	ErrNoAttestors = errors.New("relay: no peers available for verification policy")
)

// ErrPolicyPinMismatch is returned when a query's pinned policy digest
// does not match the policy expression it carries — the requester and
// this relay do not agree on which policy the proof must satisfy, so no
// proof is built at all. It is proof.ErrPolicyPinMismatch, re-exported so
// relay callers can match it without importing proof.
var ErrPolicyPinMismatch = proof.ErrPolicyPinMismatch

// FabricDriver translates network-neutral queries into invocations on a
// fabric.Network (Fig. 2 step 5): it selects one peer from each
// organization the verification policy names, runs the query on each,
// checks that the results agree, and collects a signed+encrypted
// attestation from every queried peer. Proof construction is fronted by a
// content-addressed attestation cache (see attestationCache): a repeated
// identical query is answered with the previously built proof, skipping
// every ECDSA signature and ECIES encryption.
type FabricDriver struct {
	net        *fabric.Network
	ledgerName string

	// cache stores every proof a query builds, under the requester it was
	// sealed to (see attestationCache).
	cache *attestationCache

	// batcher routes every proof build: a lone build runs at once, and
	// overlapping builds share Merkle-batched windows (one signature per
	// attestor per window). Atomic so ConfigureAttestationBatching can swap
	// it while queries are in flight.
	batcher atomic.Pointer[attestBatcher]

	// builder builds every proof this driver serves, sealing each envelope
	// under sessioned ECIES: session ephemeral keys rotate on a TTL and
	// per-requester ECDH secrets are cached per generation, so warm
	// requesters skip the variable-base multiply entirely.
	builder *proof.Builder

	// cryptoOps counts the ECDH agreements, signatures and envelope
	// encryptions behind every proof this driver builds, exposed through
	// CryptoOps (relay.Stats) so amortization is observable in production.
	cryptoOps cryptoutil.OpCounter

	// onLedgerReplay is notified when the driver answers an invoke from the
	// ledger's committed record after its own submission was invalidated as
	// a duplicate (the commit-race-loser path). Relay.RegisterDriver wires
	// it to the relay's InvokeReplays counter so cross-relay duplicate
	// traffic is visible whichever path served it. Atomic because a driver
	// may be registered on a second relay while the first is already
	// serving invokes.
	onLedgerReplay atomic.Pointer[func()]
	// onCacheStats reports attestation-cache outcomes; wired by
	// Relay.RegisterDriver to the Stats counters, first wiring wins.
	onCacheStats atomic.Pointer[cacheCallbacks]
}

// cacheCallbacks bundles the hit and miss counters so both are wired to
// the same relay atomically — a driver registered on two relays must not
// split its hits to one relay's Stats and its misses to the other's.
type cacheCallbacks struct {
	hit, miss func()
}

// OnLedgerReplay implements LedgerReplayNotifier. The first wiring wins: a
// driver registered on several relays reports its internal replays to the
// relay that registered it first.
func (d *FabricDriver) OnLedgerReplay(fn func()) {
	d.onLedgerReplay.CompareAndSwap(nil, &fn)
}

// OnAttestationCache implements AttestationCacheNotifier; first wiring
// wins, as with OnLedgerReplay.
func (d *FabricDriver) OnAttestationCache(hit, miss func()) {
	d.onCacheStats.CompareAndSwap(nil, &cacheCallbacks{hit: hit, miss: miss})
}

// notifyCache reports whether a query's proof was served from the cache
// (hit) or built fresh (miss).
func (d *FabricDriver) notifyCache(hit bool) {
	cb := d.onCacheStats.Load()
	if cb == nil {
		return
	}
	if hit {
		cb.hit()
	} else {
		cb.miss()
	}
}

// CryptoOps implements CryptoOpsReporter: monotonic totals of the ECDH
// scalar multiplications, ECDSA signatures and envelope encryptions this
// driver has performed across all proof builds.
func (d *FabricDriver) CryptoOps() (ecdh, sign, encrypt uint64) {
	return d.cryptoOps.ECDHOps(), d.cryptoOps.SignOps(), d.cryptoOps.EncryptOps()
}

var (
	_ Driver                   = (*FabricDriver)(nil)
	_ TxDriver                 = (*FabricDriver)(nil)
	_ AttestationCacheNotifier = (*FabricDriver)(nil)
)

// NewFabricDriver creates a driver for one fabric network. ledgerName is
// the logical ledger identifier used in query digests; networks in this
// implementation have a single ledger, conventionally "default".
func NewFabricDriver(net *fabric.Network, ledgerName string) *FabricDriver {
	if ledgerName == "" {
		ledgerName = "default"
	}
	d := &FabricDriver{
		net:        net,
		ledgerName: ledgerName,
		cache:      newAttestationCache(defaultAttestCacheSize, defaultAttestCacheTTL, time.Now),
	}
	d.builder = proof.NewBuilder(cryptoutil.DefaultSessionTTL, &d.cryptoOps)
	d.batcher.Store(newAttestBatcher(attestWindow, attestMaxPending, d.builder))
	return d
}

// Merkle-batching window every driver runs with. The window is short
// enough that a build caught waiting for company pays at most 2ms, long
// enough that concurrent pollers of one source collapse into one root
// signature per attestor.
const (
	attestWindow     = 2 * time.Millisecond
	attestMaxPending = 16
)

// ConfigureAttestationBatching replaces the driver's batcher with a fresh
// one whose windows last window and close early at maxPending builds;
// a non-positive argument restores its default (2ms, 16). Batching cannot
// be switched off — a lone build never waits — and no production path
// calls this: it is the seam tests and benchmarks use to widen the window
// so a fixed number of concurrent builds deterministically share one. The
// fresh batcher starts contended, so its first build waits for a window.
// Safe while serving — in-flight builds finish against the batcher they
// started with.
func (d *FabricDriver) ConfigureAttestationBatching(window time.Duration, maxPending int) {
	if window <= 0 {
		window = attestWindow
	}
	if maxPending <= 0 {
		maxPending = attestMaxPending
	}
	d.batcher.Store(newAttestBatcher(window, maxPending, d.builder))
}

// prepare runs the checks every request makes before any peer is asked:
// the verification policy parses, the query's policy pin matches it and
// the requester's certificate carries a key. It returns the pin, that key
// and one peer from each policy organization present in the network,
// appended to buf (a caller's stack array keeps the list off the heap); or
// ErrNoAttestors when there is none — so nothing is read or committed for
// a proof that could never be built.
func (d *FabricDriver) prepare(q *wire.Query, buf []*peer.Peer) (policyDigest []byte, clientPub *ecdsa.PublicKey, peers []*peer.Peer, err error) {
	vp, err := endorsement.Parse(q.PolicyExpr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("relay: verification policy: %w", err)
	}
	if policyDigest, err = proof.PinnedPolicyDigest(q); err != nil {
		return nil, nil, nil, err
	}
	if clientPub, err = msp.PublicKeyFromPEM(q.RequesterCertPEM); err != nil {
		return nil, nil, nil, fmt.Errorf("relay: requester certificate: %w", err)
	}
	peers = buf[:0]
	for _, orgID := range vp.Orgs() {
		if p := d.net.FirstPeerOf(orgID); p != nil {
			peers = append(peers, p)
		}
	}
	if len(peers) == 0 {
		return nil, nil, nil, ErrNoAttestors
	}
	return policyDigest, clientPub, peers, nil
}

// identitiesOf returns the peers' identities, a proof's attestors, for a
// request that builds one.
func identitiesOf(peers []*peer.Peer) []*msp.Identity {
	ids := make([]*msp.Identity, len(peers))
	for i, p := range peers {
		ids[i] = p.Identity()
	}
	return ids
}

// invocation is q as a chaincode invocation carrying the transient data
// of a relayed request (chaincode.Interop). A query names no TxID: the
// chaincode sees "interop-" followed by the request ID.
func invocation(q *wire.Query, rec *trace.Recorder) chaincode.Invocation {
	return chaincode.Invocation{
		Chaincode:   q.Contract,
		Function:    q.Function,
		Args:        q.Args,
		CreatorCert: q.RequesterCertPEM,
		Relayed:     true,
		Interop:     chaincode.Interop{RequestingNetwork: q.RequestingNetwork, RequestID: q.RequestID, Nonce: q.Nonce},
		Trace:       rec,
	}
}

// newSpec assembles the proof spec for q. The digest of the requester's
// certificate labels its session secrets, so a rotated certificate always
// triggers a fresh ECDH agreement. The spec keeps the query digest, so
// only a build copies it off the caller's stack.
func (d *FabricDriver) newSpec(q *wire.Query, queryDigest [cryptoutil.DigestSize]byte, policyDigest, result []byte, clientPub *ecdsa.PublicKey) proof.Spec {
	certDigest := cryptoutil.Sum(q.RequesterCertPEM)
	return proof.Spec{
		NetworkID:      d.net.ID(),
		QueryDigest:    queryDigest[:],
		PolicyDigest:   policyDigest,
		Result:         result,
		Nonce:          q.Nonce,
		ClientPub:      clientPub,
		RequesterLabel: string(certDigest[:]),
		Now:            time.Now(),
	}
}

// Platform implements Driver.
func (d *FabricDriver) Platform() string { return "fabric" }

// Query is ServeQuery for a caller that wants the response decoded: a copy
// of the served bytes, decoded and stamped with q's request ID.
func (d *FabricDriver) Query(ctx context.Context, q *wire.Query) (*wire.QueryResponse, error) {
	return queryOn(ctx, d, q)
}

// ServeQuery implements Driver. Peer queries check ctx between peers, so an
// expired budget stops the remaining proof work. Result collection runs
// first (peers must agree before anything is attested); proof construction
// is then served from the attestation cache when an identical query was
// answered before, and otherwise built fresh with per-attestor concurrency.
// The cache holds each response encoded without a request ID, and both a
// hit and a fresh build return the cache entry itself: no copy, no decode.
func (d *FabricDriver) ServeQuery(ctx context.Context, q *wire.Query) ([]byte, error) {
	if q.Ledger != "" && q.Ledger != d.ledgerName {
		return nil, fmt.Errorf("relay: unknown ledger %q", q.Ledger)
	}
	var buf [4]*peer.Peer
	policyDigest, clientPub, peers, err := d.prepare(q, buf[:0])
	if err != nil {
		return nil, err
	}

	rec := trace.FromContext(ctx)
	queryDigest := proof.QuerySumOf(q)
	inv := invocation(q, rec)
	inv.ReadOnly = true

	var agreed []byte
	var reads []ledger.KVRead
	start := rec.Start()
	// The attestors read at one height, so a disagreement is the chaincode's
	// and never a block landing on one of them mid-loop.
	if err := d.net.AtOneHeight(func() error {
		for i, p := range peers {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("relay: query aborted: %w", err)
			}
			inv.Timestamp = time.Now()
			if i == 0 {
				// The first peer's simulation also yields the read set, whose
				// versions key this query's cache entry: a later commit to
				// any key the query read gives the question a new key.
				sim, err := p.QueryRW(inv)
				if err != nil {
					return fmt.Errorf("relay: query on %s: %w", p.Name(), err)
				}
				agreed = sim.Response
				reads = sim.RWSet.Reads
				continue
			}
			result, err := p.Query(inv)
			if err != nil {
				return fmt.Errorf("relay: query on %s: %w", p.Name(), err)
			}
			if !bytes.Equal(agreed, result) {
				return fmt.Errorf("%w: %s disagrees", ErrDivergentResults, p.Name())
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	rec.End(trace.PeerRead, start)

	// The certificate digest keys the response cache (a response is sealed
	// to one requester) and labels the requester's session secrets.
	start = rec.Start()
	certDigest := cryptoutil.Sum(q.RequesterCertPEM)
	resultDigest := cryptoutil.Sum(agreed)
	key := attestCacheKey(queryDigest[:], policyDigest, resultDigest[:], reads, certDigest[:], peers)
	raw := d.cache.get(key)
	rec.End(trace.Cache, start)
	if raw != nil {
		d.notifyCache(true)
		return raw, nil
	}
	d.notifyCache(false)

	spec := d.newSpec(q, queryDigest, policyDigest, agreed, clientPub)
	resp, err := d.batcher.Load().submit(ctx, spec, identitiesOf(peers))
	if err != nil {
		return nil, err
	}
	// Cached without a request ID: the proof is identical for every resend
	// of this question, but each resend echoes its own envelope's ID.
	raw = resp.Marshal()
	d.cache.put(key, raw)
	return raw, nil
}

// Invoke implements TxDriver: a cross-network transaction (§5 extension).
// The invocation is endorsed across the target chaincode's endorsement
// policy, ordered and committed like any local transaction — the invoked
// chaincode's interop adaptation performs the ECC authorization, so a
// foreign requester can only reach functions the exposure-control rules
// permit. The committed response returns with the same attestation proof
// queries carry — and that proof is built before ordering and persisted
// inside the committed transaction (proof-carrying commits), so a replay
// serves the original proof verbatim no matter how the peer set has
// changed since.
// ctx is checked before endorsement and before ordering; once the
// transaction reaches the orderer it runs to completion — a commit cannot
// be cancelled halfway.
func (d *FabricDriver) Invoke(ctx context.Context, q *wire.Query) (*wire.QueryResponse, error) {
	if q.Ledger != "" && q.Ledger != d.ledgerName {
		return nil, fmt.Errorf("relay: unknown ledger %q", q.Ledger)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("relay: invoke aborted: %w", err)
	}
	// Fail fast on request defects before anything is committed.
	var buf [4]*peer.Peer
	policyDigest, clientPub, peers, err := d.prepare(q, buf[:0])
	if err != nil {
		return nil, err
	}
	endorsePolicy := d.net.PolicyFor(q.Contract)
	if endorsePolicy == nil {
		return nil, fmt.Errorf("relay: chaincode %q not deployed", q.Contract)
	}
	// The TxID is derived deterministically from the interop key, so every
	// relay fronting this network submits the same logical invoke under the
	// same transaction identity and the committer's duplicate check can
	// collapse them. A request without an ID has no exactly-once identity;
	// it gets a random TxID so independent anonymous invokes never collide.
	txID := InteropTxID(q)
	if txID == "" {
		fresh, err := newRequestID()
		if err != nil {
			return nil, err
		}
		txID = "interop-tx-" + fresh
	}
	rec := trace.FromContext(ctx)
	inv := invocation(q, rec)
	inv.TxID, inv.Timestamp, inv.InteropKey = txID, time.Now(), q.InteropKey()
	var responses []*peer.ProposalResponse
	start := rec.Start()
	// One height for every endorser: a concurrent invoke's block reaching
	// one of them mid-loop must not read as nondeterministic chaincode.
	if err := d.net.AtOneHeight(func() error {
		for _, orgID := range endorsePolicy.Orgs() {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("relay: invoke aborted: %w", err)
			}
			p := d.net.FirstPeerOf(orgID)
			if p == nil {
				continue
			}
			resp, err := p.Endorse(inv)
			if err != nil {
				return fmt.Errorf("relay: endorse on %s: %w", p.Name(), err)
			}
			responses = append(responses, resp)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	rec.End(trace.Endorse, start)
	if len(responses) == 0 {
		return nil, ErrNoAttestors
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("relay: invoke aborted before ordering: %w", err)
	}
	tx, err := peer.AssembleTransaction(inv, responses)
	if err != nil {
		return nil, err
	}
	// Proof-carrying commit: the attestation proof over the endorsed
	// response is built now — while the verification-policy peer set that
	// satisfies it still exists — and persisted inside the transaction. If
	// the commit is invalidated the proof dies with it; if it commits, the
	// exact response served below can be replayed verbatim forever.
	attestors := identitiesOf(peers)
	spec := d.newSpec(q, proof.QuerySumOf(q), policyDigest, tx.Response, clientPub)
	resp, err := d.batcher.Load().submit(ctx, spec, attestors)
	if err != nil {
		return nil, err
	}
	tx.ProofBundle = proof.Seal(spec, resp.Marshal(), attestors).Marshal()
	// SubmitWait blocks until the block carrying this transaction is
	// delivered — possibly shared with concurrent invokes, so a racing
	// duplicate can land in the same block — and tx.Validation below
	// reflects the committed outcome.
	start = rec.Start()
	cut, err := d.net.Orderer().SubmitWait(tx)
	if err != nil {
		return nil, fmt.Errorf("relay: order cross-network tx: %w", err)
	}
	if rec != nil {
		rec.Record(trace.OrderWait, start, cut.Sub(start))
		rec.End(trace.Commit, cut)
	}
	if tx.Validation == ledger.Duplicate {
		// The committer refused this submission because the same logical
		// invoke is already on the ledger — typically committed through a
		// sibling relay racing this one. The original outcome is the answer.
		resp, found, err := d.ReplayInvoke(ctx, q)
		if err != nil {
			return nil, err
		}
		if found {
			if fn := d.onLedgerReplay.Load(); fn != nil {
				(*fn)()
			}
			return resp, nil
		}
		return nil, fmt.Errorf("relay: cross-network tx invalidated: %s", tx.Validation)
	}
	if tx.Validation != ledger.Valid {
		return nil, fmt.Errorf("relay: cross-network tx invalidated: %s", tx.Validation)
	}

	resp.RequestID = q.RequestID
	return resp, nil
}

// InteropTxID derives the platform transaction ID for an interop invoke.
// It digests the full interop key — requesting network, requester
// certificate digest, request ID — rather than the bare request ID, so the
// ID is identical no matter which relay submits the request (the
// committer's TxID-level duplicate check must collapse sibling
// submissions) while staying private to the requester: two requesters
// choosing the same idempotency key get distinct TxIDs, so neither can
// occupy or block the other's transaction identity. Empty when the query
// carries no request ID.
//
// The ID is the prefix and the first 16 bytes of the key's digest in hex,
// built on the stack from InteropKeySum: its string is its one allocation.
func InteropTxID(q *wire.Query) string {
	if q.RequestID == "" {
		return ""
	}
	const prefix = "interop-tx-"
	sum := q.InteropKeySum()
	var id [len(prefix) + 32]byte
	copy(id[:], prefix)
	hex.Encode(id[len(prefix):], sum[:16])
	return string(id[:])
}

// ReplayInvoke implements TxDriver: it recovers the committed outcome of an
// interop request from the ledger itself, the only record of the
// exactly-once guarantee. Whichever relay process receives a duplicate —
// the one that committed it, a restarted one, or a redundant sibling —
// finds the commit here and serves the proof bundle persisted with it: the
// original attestations, byte for byte, with no re-signing. Only commits
// that predate proof-carrying (or duplicates whose nonce or policy
// genuinely differs from the original request) fall back to re-attesting
// under the current peer set.
// found=false means no valid commit exists for the request (and is not an
// error: the caller is then the legitimate first executor).
func (d *FabricDriver) ReplayInvoke(ctx context.Context, q *wire.Query) (*wire.QueryResponse, bool, error) {
	key := q.InteropKey()
	if key == "" {
		return nil, false, nil
	}
	if q.Ledger != "" && q.Ledger != d.ledgerName {
		// The same gate the execution path applies: a duplicate aimed at a
		// ledger this driver does not serve must not be answered from the
		// one it does.
		return nil, false, fmt.Errorf("relay: unknown ledger %q", q.Ledger)
	}
	if err := ctx.Err(); err != nil {
		return nil, false, fmt.Errorf("relay: replay lookup aborted: %w", err)
	}
	peers := d.net.AllPeers()
	if len(peers) == 0 {
		return nil, false, nil
	}
	// Any peer serves: every peer validates and commits every block.
	tx, err := peers[0].Blocks().TxByInteropKey(key)
	if err != nil {
		return nil, false, nil
	}
	// The replayed proof binds the *incoming* query's digest to the
	// *committed* response, so the two must describe the same invocation:
	// serving the old response under a new contract/function/argument
	// binding would mint a valid-looking proof for a question the ledger
	// never answered. A requester that reuses an idempotency key for a
	// different request gets an error, not silently stale data.
	if err := matchesCommitted(tx, q); err != nil {
		return nil, false, err
	}
	if resp := d.persistedProof(tx, q); resp != nil {
		return resp, true, nil
	}
	// No usable persisted bundle: re-attest under the current peer set, the
	// pre-proof-carrying behavior. A deterministic idempotent retry never
	// lands here; a retry with a fresh nonce or changed policy does, and
	// gets a proof bound to what it actually presented.
	resp, err := d.attestResponse(ctx, q, tx.Response)
	if err != nil {
		return nil, false, err
	}
	return resp, true, nil
}

// persistedProof returns the transaction's persisted proof as a response
// for q when the sealed bundle answers exactly the question q asks — same
// query digest (contract, function, args, nonce) and same policy pin. Nil
// when the transaction predates proof-carrying commits or the pins differ.
func (d *FabricDriver) persistedProof(tx *ledger.Transaction, q *wire.Query) *wire.QueryResponse {
	if len(tx.ProofBundle) == 0 {
		return nil
	}
	sealed, err := proof.UnmarshalSealed(tx.ProofBundle)
	if err != nil {
		return nil
	}
	if !bytes.Equal(sealed.QueryDigest, proof.QueryDigestOf(q)) {
		return nil
	}
	if pd, err := proof.PinnedPolicyDigest(q); err != nil || !bytes.Equal(sealed.PolicyDigest, pd) {
		return nil
	}
	resp, err := sealed.OpenWire()
	if err != nil {
		return nil
	}
	resp.RequestID = q.RequestID
	return resp
}

// matchesCommitted checks that an incoming duplicate describes the same
// invocation as the transaction committed under its interop key.
func matchesCommitted(tx *ledger.Transaction, q *wire.Query) error {
	mismatch := tx.Chaincode != q.Contract || tx.Function != q.Function || len(tx.Args) != len(q.Args)
	if !mismatch {
		for i := range tx.Args {
			if !bytes.Equal(tx.Args[i], q.Args[i]) {
				mismatch = true
				break
			}
		}
	}
	if mismatch {
		return fmt.Errorf("%w: request %s was already committed as %s.%s with different arguments", ErrRequestMismatch, q.RequestID, tx.Chaincode, tx.Function)
	}
	return nil
}

// attestResponse wraps a committed invoke result in a freshly built
// attestation proof — the fallback for replays of transactions that carry
// no usable persisted bundle. The proof binds the nonce and policy the
// incoming query presents, so it verifies for that requester even though it
// is not the original artifact.
func (d *FabricDriver) attestResponse(ctx context.Context, q *wire.Query, result []byte) (*wire.QueryResponse, error) {
	var buf [4]*peer.Peer
	policyDigest, clientPub, peers, err := d.prepare(q, buf[:0])
	if err != nil {
		return nil, err
	}
	spec := d.newSpec(q, proof.QuerySumOf(q), policyDigest, result, clientPub)
	resp, err := d.batcher.Load().submit(ctx, spec, identitiesOf(peers))
	if err != nil {
		return nil, err
	}
	resp.RequestID = q.RequestID
	return resp, nil
}

// SubscribeEvents implements EventSource over the network's committed
// chaincode events. ctx bounds establishment only; an already-cancelled
// context refuses the subscription. Each delivery carries the emitting
// transaction's commit time, so cross-network subscribers can order events
// from different sources.
func (d *FabricDriver) SubscribeEvents(ctx context.Context, eventName string, deliver func(payload []byte, name string, unixNano uint64)) (func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("relay: subscribe aborted: %w", err)
	}
	sub := d.net.SubscribeEvents("", eventName)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case ev, ok := <-sub.C:
				if !ok {
					return
				}
				deliver(ev.Payload, ev.Name, ev.UnixNano)
			case <-stop:
				return
			}
		}
	}()
	cancel := func() {
		sub.Cancel()
		close(stop)
		<-done
	}
	return cancel, nil
}
