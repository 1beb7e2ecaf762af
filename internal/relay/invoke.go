package relay

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// servedInvoke is one remembered invoke outcome: the response payload
// (nil when the body was too large to retain) plus a fingerprint of the
// invocation it answered, so a requester reusing its idempotency key for a
// different request is refused instead of handed a cached response whose
// proof binds the original question.
type servedInvoke struct {
	payload     []byte
	fingerprint string
}

// invokeFingerprint digests the parts of a query that define what was
// asked: the target network and ledger (the dedup key does not include
// them, and one relay may front several co-located networks — a cached
// response for network A must never answer an invoke aimed at network B),
// then contract, function and arguments. Encoded with field framing so no
// concatenation of values is ambiguous.
func invokeFingerprint(q *wire.Query) string {
	e := wire.NewEncoder(64)
	e.String(1, q.TargetNetwork)
	e.String(2, q.Ledger)
	e.String(3, q.Contract)
	e.String(4, q.Function)
	for _, a := range q.Args {
		e.Message(5, a)
	}
	return string(cryptoutil.Digest(e.Bytes()))
}

// TxDriver is implemented by drivers whose platform supports cross-network
// transaction submission — the extension §5 of the paper describes: "the
// query protocol can be easily extended to enable cross-network chaincode
// invocations", reusing the relay, system contracts and client support.
type TxDriver interface {
	// Invoke submits a transaction on the local network on behalf of an
	// authorized foreign requester and returns the committed response with
	// proof, exactly as Query does for reads. ctx carries the requester's
	// remaining time budget.
	Invoke(ctx context.Context, q *wire.Query) (*wire.QueryResponse, error)
}

// Invoke is the client-facing entry point for cross-network transactions:
// it mirrors Query but asks the source network to execute and commit a
// state change. Discovery and proof machinery are shared with Query; the
// caller's struct is never modified. Because a transaction is not
// idempotent, the envelope is delivered at most once: hedging never
// applies, and failover moves to the next relay address only while the
// connection was provably never established (sendAtMostOnce). As a second
// guard, the source relay deduplicates invokes by request ID (see
// handleInvoke), so a retried request that reaches a relay which already
// committed replays the original response instead of re-executing. That
// cache protects the TCP transport's same-address lost-connection
// retry, and lets an application retry safely by setting the same
// q.RequestID explicitly (a fresh ID is generated only when it is empty).
func (r *Relay) Invoke(ctx context.Context, q *wire.Query) (*wire.QueryResponse, error) {
	q, err := r.prepareRequest(q)
	if err != nil {
		return nil, err
	}
	if d, ok := r.driverFor(q.TargetNetwork); ok {
		resp, err := invokeOn(ctx, d, q)
		if err != nil {
			return nil, err
		}
		return ensureRequestID(resp, q), nil
	}
	addrs, err := r.resolveOrdered(q.TargetNetwork)
	if err != nil {
		// Discovery does not know the target: fall back to the static
		// route table and launch a multi-hop walk through a via network.
		return r.invokeViaRoute(ctx, q, err)
	}
	env := &wire.Envelope{
		Version:   wire.ProtocolVersion,
		Type:      wire.MsgInvoke,
		RequestID: q.RequestID,
		Payload:   q.Marshal(),
	}
	reply, err := r.sendAtMostOnce(ctx, q.TargetNetwork, addrs, env)
	if err != nil {
		return nil, err
	}
	return parseQueryReply(reply)
}

// invokeDedupLimit bounds the source-side cache of served invoke request
// IDs. 1024 recent responses comfortably covers any realistic failover
// window while keeping memory bounded.
const invokeDedupLimit = 1024

// invokeDedupMaxEntryBytes caps the payload size the cache will retain.
// Outsized responses are remembered by ID only (nil payload): a resend is
// still refused instead of re-executed, it just cannot replay the original
// response.
const invokeDedupMaxEntryBytes = 1 << 20 // 1 MiB

// invokeDedupMaxTotalBytes bounds the cache's total resident payload
// bytes across all entries.
const invokeDedupMaxTotalBytes = 64 << 20 // 64 MiB

// ErrRequestMismatch is returned (wrapped) when a duplicate invoke's
// contract, function or arguments differ from what the ledger committed
// under its idempotency key: the committed outcome cannot be replayed for
// a different question, and the request is refused rather than executed.
var ErrRequestMismatch = errors.New("relay: request does not match the invoke committed under its idempotency key")

// LedgerReplayNotifier is implemented by InvokeReplayer drivers that can
// also serve replays internally — after their own submission loses a
// commit race — and report those through a callback so the relay's
// InvokeReplays counter covers both replay paths. RegisterDriver wires the
// callback automatically.
type LedgerReplayNotifier interface {
	OnLedgerReplay(func())
}

// InvokeReplayer is implemented by drivers that can recover the committed
// outcome of an interop request from the ledger itself. It is the
// cross-relay complement of the relay's in-memory replay cache: the cache
// only remembers invokes this relay process served, while the ledger holds
// every commit regardless of which redundant relay submitted it. found
// reports whether a valid commit for the request exists; found=false with a
// nil error simply means the caller is the first executor. An error
// wrapping ErrRequestMismatch means a commit exists but describes a
// different invocation — a terminal refusal, not a lookup failure.
type InvokeReplayer interface {
	ReplayInvoke(ctx context.Context, q *wire.Query) (resp *wire.QueryResponse, found bool, err error)
}

// handleInvoke serves an incoming cross-network transaction request.
// Served responses are remembered by request ID: a transport-level resend
// (address failover or a connection that died after delivery) replays the
// committed outcome instead of executing the transaction a second time.
// Before executing, the ledger is consulted for a commit a sibling relay
// made (InvokeReplayer), so exactly-once holds across redundant relay
// processes, not just within this one's memory.
func (r *Relay) handleInvoke(ctx context.Context, env *wire.Envelope) *wire.Envelope {
	q, err := wire.UnmarshalQuery(env.Payload)
	if err != nil {
		return errEnvelope(env.RequestID, fmt.Sprintf("malformed invoke: %v", err))
	}
	dedupKey, fingerprint := "", ""
	if q.RequestID != "" {
		// The key binds the requester's network and certificate to the
		// request ID so one requester cannot occupy or poison another's
		// ID (request IDs travel in plaintext).
		dedupKey = invokeDedupKey(q)
		fingerprint = invokeFingerprint(q)
		reply, release, done, droppedBody := r.invokeClaim(ctx, env.RequestID, q.RequestID, dedupKey, fingerprint)
		if done {
			if droppedBody {
				// The request committed here but its response was too large
				// to retain in memory. The ledger still has it: recover and
				// re-attest rather than refusing a replay a cold sibling
				// relay would happily serve.
				if d, ok := r.driverFor(q.TargetNetwork); ok {
					if lr, ok := d.(InvokeReplayer); ok {
						if resp, found, err := lr.ReplayInvoke(ctx, q); err == nil && found {
							r.countInvokeReplay()
							return &wire.Envelope{
								Version:   wire.ProtocolVersion,
								Type:      wire.MsgQueryResponse,
								RequestID: env.RequestID,
								Payload:   ensureRequestID(resp, q).Marshal(),
							}
						}
					}
				}
			}
			// A replayed or refused duplicate never owns the pending entry,
			// so there is nothing to release here: releasing would wake (and
			// orphan) duplicates of a still-running original.
			return reply
		}
		defer release()
	}
	if err := r.checkLimit(q.RequestingNetwork); err != nil {
		return errEnvelope(env.RequestID, err.Error())
	}
	d, ok := r.driverFor(q.TargetNetwork)
	if !ok {
		if r.forwarderIdentity() != nil {
			// The dedup claim made above stays in force: duplicates of a
			// forwarded invoke wait here at the hub, and the forwarded
			// outcome is remembered under the same key.
			return r.forwardInvoke(ctx, env, q, dedupKey, fingerprint)
		}
		return errEnvelope(env.RequestID, fmt.Sprintf("network %q not served by this relay", q.TargetNetwork))
	}
	if dedupKey != "" {
		// Ledger-level dedup: a redundant relay may already have committed
		// this request. Replaying from the ledger keeps the exactly-once
		// guarantee anchored where TrustCross argues it must be — at the
		// ledger — instead of in one gateway process's memory.
		if lr, ok := d.(InvokeReplayer); ok {
			resp, found, err := lr.ReplayInvoke(ctx, q)
			switch {
			case err == nil && found:
				r.countInvokeReplay()
				payload := ensureRequestID(resp, q).Marshal()
				r.invokeRemember(dedupKey, payload, fingerprint)
				return &wire.Envelope{
					Version:   wire.ProtocolVersion,
					Type:      wire.MsgQueryResponse,
					RequestID: env.RequestID,
					Payload:   payload,
				}
			case errors.Is(err, ErrRequestMismatch):
				// Terminal: a commit exists but for a different question.
				// Executing anyway would burn an endorse/order/commit cycle
				// on a transaction the committer is guaranteed to invalidate.
				r.countError()
				return errEnvelope(env.RequestID, err.Error())
			}
			// Any other lookup error falls through to execution: the commit
			// path performs the same duplicate check authoritatively.
		}
	}
	r.countInvoke()
	resp, err := invokeOn(ctx, d, q)
	if err != nil {
		r.countError()
		resp = &wire.QueryResponse{RequestID: q.RequestID, Error: err.Error()}
	}
	payload := ensureRequestID(resp, q).Marshal()
	if dedupKey != "" && err == nil {
		// Only committed outcomes are replayable; a failed attempt may
		// legitimately be retried by the client with the same ID.
		r.invokeRemember(dedupKey, payload, fingerprint)
	}
	return &wire.Envelope{
		Version:   wire.ProtocolVersion,
		Type:      wire.MsgQueryResponse,
		RequestID: env.RequestID,
		Payload:   payload,
	}
}

// invokeClaim decides whether this request may execute. done=true means
// the returned envelope is the final answer: a replay of the committed
// response, or an error for a duplicate of an attempt that is still in
// flight or whose response was not retained; release is nil because the
// caller owns nothing. droppedBody marks the one refusal the caller may
// still improve on: the request committed here but its oversized response
// body was not retained, so a ledger-capable driver can recover it.
// done=false means the caller is the single executor for this request ID
// and must call release (exactly once, normally deferred) when finished.
// Binding the release to the claim — rather than exposing a key-addressed
// release any path could call — is what makes a double release or a
// replay-path release structurally impossible.
func (r *Relay) invokeClaim(ctx context.Context, envelopeID, requestID, key, fingerprint string) (reply *wire.Envelope, release func(), done bool, droppedBody bool) {
	r.invokeMu.Lock()
	if served, ok := r.invokeServed[key]; ok {
		r.invokeMu.Unlock()
		dropped := served.payload == nil && served.fingerprint == fingerprint
		return r.replayServed(envelopeID, requestID, served, fingerprint), nil, true, dropped
	}
	if r.invokePending == nil {
		r.invokePending = make(map[string]chan struct{})
	}
	inflight, ok := r.invokePending[key]
	if !ok {
		// First sighting: this caller executes.
		r.invokePending[key] = make(chan struct{})
		r.invokeMu.Unlock()
		return nil, func() { r.invokeRelease(key) }, false, false
	}
	r.invokeMu.Unlock()
	// A duplicate of an attempt still executing (e.g. a transport retry
	// after a slow commit outran the I/O timeout): wait for the original
	// rather than executing the transaction a second time.
	select {
	case <-inflight:
		r.invokeMu.Lock()
		served, ok := r.invokeServed[key]
		r.invokeMu.Unlock()
		if !ok {
			// The original attempt failed; the duplicate reports that
			// rather than re-executing with unknowable partial effects.
			return errEnvelope(envelopeID, fmt.Sprintf("duplicate invoke %s: original attempt failed", requestID)), nil, true, false
		}
		dropped := served.payload == nil && served.fingerprint == fingerprint
		return r.replayServed(envelopeID, requestID, served, fingerprint), nil, true, dropped
	case <-ctx.Done():
		return errEnvelope(envelopeID, fmt.Sprintf("duplicate invoke %s: %v", requestID, ctx.Err())), nil, true, false
	}
}

// replayServed wraps a cached (or dropped-as-oversized) response for a
// duplicate invoke — after checking that the duplicate asks the question
// the cached response answered. The in-memory path must refuse a reused
// idempotency key exactly like the ledger path (matchesCommitted) does, or
// the outcome of key misuse would depend on which relay the request lands
// on.
func (r *Relay) replayServed(envelopeID, requestID string, served servedInvoke, fingerprint string) *wire.Envelope {
	if served.fingerprint != fingerprint {
		return errEnvelope(envelopeID,
			fmt.Sprintf("%v: request %s was already committed with different arguments", ErrRequestMismatch, requestID))
	}
	if served.payload == nil {
		// Committed, but the response was too large to retain.
		return errEnvelope(envelopeID,
			fmt.Sprintf("duplicate invoke %s: already committed, original response not retained for replay", requestID))
	}
	return &wire.Envelope{
		Version:   wire.ProtocolVersion,
		Type:      wire.MsgQueryResponse,
		RequestID: envelopeID,
		Payload:   served.payload,
	}
}

// invokeRelease marks the request's execution finished, waking duplicates
// blocked in invokeClaim. It is only reachable through the release closure
// invokeClaim hands the executor, so no other path can close a pending
// entry it does not own; releasing an already-released key is a no-op.
func (r *Relay) invokeRelease(key string) {
	r.invokeMu.Lock()
	defer r.invokeMu.Unlock()
	if ch, ok := r.invokePending[key]; ok {
		close(ch)
		delete(r.invokePending, key)
	}
}

// invokeDedupKey builds the cache key for an invoke: the requester's
// network and certificate digest bound to the request ID, so the ID space
// is private to each requester. It is the same derivation the ledger
// indexes committed invokes under (wire.Query.InteropKey), so the
// in-memory cache and the ledger replay index agree on request identity.
func invokeDedupKey(q *wire.Query) string {
	return q.InteropKey()
}

// invokeRemember records a served invoke response under its dedup key,
// evicting the oldest entries FIFO once either the entry count or the
// total byte budget is exceeded.
func (r *Relay) invokeRemember(key string, payload []byte, fingerprint string) {
	if len(payload) > invokeDedupMaxEntryBytes {
		payload = nil // remember the ID, drop the body (see invokeDedupMaxEntryBytes)
	}
	r.invokeMu.Lock()
	defer r.invokeMu.Unlock()
	if r.invokeServed == nil {
		r.invokeServed = make(map[string]servedInvoke)
	}
	if _, ok := r.invokeServed[key]; ok {
		return
	}
	r.invokeServed[key] = servedInvoke{payload: payload, fingerprint: fingerprint}
	r.invokeOrder = append(r.invokeOrder, key)
	r.invokeBytes += len(payload)
	for len(r.invokeOrder)-r.invokeHead > invokeDedupLimit || r.invokeBytes > invokeDedupMaxTotalBytes {
		if r.invokeHead >= len(r.invokeOrder) {
			break
		}
		oldest := r.invokeOrder[r.invokeHead]
		r.invokeBytes -= len(r.invokeServed[oldest].payload)
		delete(r.invokeServed, oldest)
		r.invokeHead++
	}
	// Compact only once the dead prefix dominates, keeping eviction
	// amortized O(1) instead of copying the order slice on every insert.
	if r.invokeHead > len(r.invokeOrder)/2 {
		r.invokeOrder = append([]string(nil), r.invokeOrder[r.invokeHead:]...)
		r.invokeHead = 0
	}
}

func invokeOn(ctx context.Context, d Driver, q *wire.Query) (*wire.QueryResponse, error) {
	td, ok := d.(TxDriver)
	if !ok {
		return nil, fmt.Errorf("relay: network %q does not support cross-network transactions", q.TargetNetwork)
	}
	return td.Invoke(ctx, q)
}
