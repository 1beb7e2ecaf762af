package relay

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/trace"
	"repro/internal/wire"
)

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
	// ReplayInvoke recovers the committed outcome of an interop request from
	// the ledger itself, which holds every commit regardless of which relay
	// process submitted it — the one place exactly-once is decided. found
	// reports whether a valid commit for the request exists; found=false
	// with a nil error simply means the caller is the first executor. An
	// error wrapping ErrRequestMismatch means a commit exists but describes
	// a different invocation — a terminal refusal, not a lookup failure.
	ReplayInvoke(ctx context.Context, q *wire.Query) (resp *wire.QueryResponse, found bool, err error)
}

// Invoke is the client-facing entry point for cross-network transactions:
// it mirrors Query but asks the source network to execute and commit a
// state change. Discovery, routing and proof machinery are shared with
// Query; the caller's struct is never modified. Because a transaction is
// not idempotent, the envelope is delivered at most once: its budget is
// never split, and failover moves to the next relay address, or past every
// direct relay to a via, only while the connection was provably never
// established (sendLeg). As a second guard, the source relay asks its
// ledger before executing (see handleInvoke), so a retried request that
// reaches any relay fronting a network which already committed it replays
// the original response instead of re-executing. That protects the TCP
// transport's same-address lost-connection retry, and lets an application
// retry safely by setting the same q.RequestID explicitly (a fresh ID is
// generated only when it is empty).
func (r *Relay) Invoke(ctx context.Context, q *wire.Query) (*wire.QueryResponse, error) {
	return r.request(ctx, wire.MsgInvoke, q)
}

// ErrRequestMismatch is returned (wrapped) when a duplicate invoke's
// contract, function or arguments differ from what the ledger committed
// under its idempotency key: the committed outcome cannot be replayed for
// a different question, and the request is refused rather than executed.
var ErrRequestMismatch = errors.New("relay: request does not match the invoke committed under its idempotency key")

// LedgerReplayNotifier is implemented by TxDrivers that also serve replays
// internally — after their own submission loses a commit race — and report
// those through a callback so the relay's InvokeReplays counter covers both
// replay paths. RegisterDriver wires the callback automatically.
type LedgerReplayNotifier interface {
	OnLedgerReplay(func())
}

// handleInvoke serves an incoming cross-network transaction request. The
// ledger is the only replay authority: before executing, the source relay
// asks it (TxDriver.ReplayInvoke) whether the request already committed —
// through this relay or a redundant sibling, before or after a restart —
// and serves the committed outcome if so. A duplicate arriving while its
// original is still in flight on this relay first waits for it
// (invokeClaim), so the two never endorse in parallel; then it takes the
// same path. At a hub that means forwarding again, and the source's ledger
// answers.
func (r *Relay) handleInvoke(ctx context.Context, env *wire.Envelope) *wire.Envelope {
	q, err := decodeQuery(ctx, env)
	if err != nil {
		return errEnvelope(env.RequestID, fmt.Sprintf("malformed invoke: %v", err))
	}
	// The key binds the requester's network and certificate to the request
	// ID, so one requester cannot occupy another's ID (request IDs travel in
	// plaintext). Empty when the request has no ID and so no exactly-once
	// identity.
	key := q.InteropKey()
	if key != "" {
		release, err := r.invokeClaim(ctx, key)
		if err != nil {
			return errEnvelope(env.RequestID, fmt.Sprintf("duplicate invoke %s: %v", q.RequestID, err))
		}
		defer release()
	}
	if err := r.checkLimit(q.RequestingNetwork); err != nil {
		return errEnvelope(env.RequestID, err.Error())
	}
	d, ok := r.driverFor(q.TargetNetwork)
	if !ok {
		if r.forwarderIdentity() != nil {
			return r.forward(ctx, env, q)
		}
		return errEnvelope(env.RequestID, fmt.Sprintf("network %q not served by this relay", q.TargetNetwork))
	}
	if td, ok := d.(TxDriver); ok && key != "" {
		// Ledger-level dedup keeps the exactly-once guarantee anchored where
		// TrustCross argues it must be — at the ledger — instead of in one
		// gateway process's memory.
		rec := trace.FromContext(ctx)
		start := rec.Start()
		resp, found, err := td.ReplayInvoke(ctx, q)
		rec.End(trace.ReplayCheck, start)
		switch {
		case err == nil && found:
			r.countInvokeReplay()
			return wire.ResponseEnvelope(env.RequestID, ensureRequestID(resp, q))
		case errors.Is(err, ErrRequestMismatch):
			// Terminal: a commit exists but for a different question.
			// Executing anyway would burn an endorse/order/commit cycle on a
			// transaction the committer is guaranteed to invalidate.
			r.countError()
			return errEnvelope(env.RequestID, err.Error())
		}
		// Any other lookup error falls through to execution: the commit
		// path performs the same duplicate check authoritatively.
	}
	r.countInvoke()
	resp, err := invokeOn(ctx, d, q)
	if err != nil {
		r.countError()
		resp = &wire.QueryResponse{RequestID: q.RequestID, Error: err.Error()}
	}
	return wire.ResponseEnvelope(env.RequestID, ensureRequestID(resp, q))
}

// invokeClaim makes the caller the only request under key in flight on
// this relay: while another holds the key it waits for that one to finish,
// then claims again. It returns the release the caller must call exactly
// once (normally deferred) when finished, or ctx's error when the wait is
// abandoned — in which case the caller owns nothing. Binding release to the
// claim, rather than exposing a key-addressed release any path could call,
// is what makes a waiter tearing down the executor's entry structurally
// impossible.
func (r *Relay) invokeClaim(ctx context.Context, key string) (release func(), err error) {
	for {
		r.invokeMu.Lock()
		inflight, busy := r.invokePending[key]
		if !busy {
			done := make(chan struct{})
			r.invokePending[key] = done
			r.invokeMu.Unlock()
			return func() {
				r.invokeMu.Lock()
				delete(r.invokePending, key)
				r.invokeMu.Unlock()
				close(done)
			}, nil
		}
		r.invokeMu.Unlock()
		select {
		case <-inflight:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func invokeOn(ctx context.Context, d Driver, q *wire.Query) (*wire.QueryResponse, error) {
	td, ok := d.(TxDriver)
	if !ok {
		return nil, fmt.Errorf("relay: network %q does not support cross-network transactions", q.TargetNetwork)
	}
	return td.Invoke(ctx, q)
}
