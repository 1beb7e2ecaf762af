// The outbound path: how a request leaves a relay, whether the relay is the
// origin (Query, Invoke, SubscribeRemote) or a hub forwarding one leg of a
// transitive route (origin → hub … → source).
//
// There is one path, and an origin walks it as a hub whose incoming route is
// empty: legs builds the candidate next hops (the target's own relays first,
// then each route-table via), sendLeg tries one leg's health-ordered
// addresses under the delivery rule of the message type, and walk moves to
// the next leg only when every address of the previous one failed, then
// authenticates the reply's hop chain for the leg it came down. Every send
// feeds the per-address health tracker and circuit breaker, so routing
// prefers healthy relays at every hop.
//
// A relay with forwarding enabled (EnableForwarding) walks the same path for
// a query or invoke targeting a network it has no driver for. It appends its
// own network to the route so cycles are refused structurally at the next
// hop, bounds the walk with the envelope's hop TTL, and re-stamps the
// remaining budget of its serving context (HandleEnvelope derived it from
// the envelope's TimeoutNanos) on every attempt. On the way back it extends
// the verified chain with its own signed pin — a forwarder never launders
// an unverifiable path upstream under its signature — and relays
// downstream refusals verbatim.
package relay

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/proof"
	"repro/internal/trace"
	"repro/internal/wire"
)

var (
	// ErrRoutingCycle is returned (in an error envelope) when an envelope
	// arrives at a relay already named on its route.
	ErrRoutingCycle = errors.New("relay: routing cycle")
	// ErrHopLimit is returned when forwarding would exceed the envelope's
	// hop TTL.
	ErrHopLimit = errors.New("relay: hop limit exceeded")
	// ErrNoRoute is returned when neither discovery nor the route table
	// yields a next hop for a target network, or when every via leg failed.
	ErrNoRoute = errors.New("relay: no route to network")
)

// remoteRefusal is a MsgError reply: a relay further down the path refused
// the request. A hub relays it upstream verbatim.
type remoteRefusal string

func (e remoteRefusal) Error() string { return "relay: remote error: " + string(e) }

// hopLeg is one candidate next hop: the network whose relays are
// contacted, the health-ordered addresses to try and the envelope they are
// sent. direct marks the target network itself rather than a via.
type hopLeg struct {
	network string
	addrs   []string
	direct  bool
	env     *wire.Envelope
}

// legs builds the candidate legs for env leaving this relay toward target,
// direct first: the target's own relays when discovery resolves them, then
// each configured via in table order. A via that is this network, the
// target or already on the route is skipped (the next hop would refuse the
// cycle), and so is a leg whose network discovery cannot resolve. With no
// leg left the error is the target's resolve error, naming the target.
// The legs are appended to buf[:0], so a caller's stack array spares an
// allocation per request.
//
// An origin's direct leg sends env as it is. Every other leg sends one copy
// with this relay appended to the route; an origin's copy opens the route
// and stamps its route table's hop TTL, a hub's keeps the TTL it was handed.
// The budget fields are restamped on every transport attempt (sendLeg).
func (r *Relay) legs(buf []hopLeg, env *wire.Envelope, target string, origin bool) ([]hopLeg, error) {
	legs := buf[:0]
	var routed *wire.Envelope
	add := func(network string, addrs []string, direct bool) {
		out := env
		if !direct || !origin {
			if routed == nil {
				copied := *env
				copied.Route = append(env.Route[:len(env.Route):len(env.Route)], r.localNetwork)
				if origin {
					copied.MaxHops = r.routeTable().MaxHops()
				}
				routed = &copied
			}
			out = routed
		}
		legs = append(legs, hopLeg{network: network, addrs: addrs, direct: direct, env: out})
	}
	addrs, resolveErr := r.resolveOrdered(target)
	if resolveErr == nil {
		add(target, addrs, true)
	}
	for _, via := range r.routeTable().NextHops(target) {
		if via == r.localNetwork || via == target || env.RouteContains(via) {
			continue
		}
		if addrs, err := r.resolveOrdered(via); err == nil {
			add(via, addrs, false)
		}
	}
	if len(legs) == 0 {
		return nil, fmt.Errorf("%w: %s", resolveErr, target)
	}
	return legs, nil
}

// walk delivers a request down legs in order and returns the reply of the
// first leg that took it. The next leg is tried only when every address of
// the previous one failed (ErrAllRelaysFailed) — for an invoke or subscribe
// that means nothing was delivered. A failed walk that tried a via wraps
// the last error in ErrNoRoute. q is nil for a subscribe, whose reply
// carries no response.
func (r *Relay) walk(ctx context.Context, q *wire.Query, legs []hopLeg) (*wire.QueryResponse, error) {
	var lastErr error
	for _, leg := range legs {
		reply, err := r.sendLeg(ctx, leg)
		if errors.Is(err, ErrAllRelaysFailed) {
			lastErr = err
			continue
		}
		if err != nil {
			return nil, err
		}
		return openReply(trace.FromContext(ctx), q, reply, leg)
	}
	if legs[len(legs)-1].direct {
		return nil, lastErr
	}
	return nil, fmt.Errorf("%w: %s: %w", ErrNoRoute, q.TargetNetwork, lastErr)
}

// openReply parses a leg's reply and authenticates its hop chain the same
// way at origin and hub. A via leg's chain must be non-empty and end with
// the via's own pin — the sender knows which hub it handed the request to,
// which is what makes whole-chain truncation detectable; a direct leg's
// pins, if any, must still verify. rec times both for a traced request.
func openReply(rec *trace.Recorder, q *wire.Query, reply *wire.Envelope, leg hopLeg) (*wire.QueryResponse, error) {
	switch reply.Type {
	case wire.MsgQueryResponse:
	case wire.MsgError:
		return nil, remoteRefusal(reply.Payload)
	default:
		return nil, fmt.Errorf("%w: unexpected reply type %s", ErrBadEnvelope, reply.Type)
	}
	if q == nil {
		return nil, nil
	}
	start := rec.Start()
	resp, err := wire.UnmarshalQueryResponse(reply.Payload)
	rec.End(trace.Codec, start)
	if err != nil {
		return nil, fmt.Errorf("%w: response via %s: %v", ErrBadEnvelope, leg.network, err)
	}
	start = rec.Start()
	if leg.direct {
		_, err = proof.VerifyHopChain(q, resp)
	} else {
		_, err = proof.VerifyHopChainVia(q, resp, leg.network)
	}
	rec.End(trace.PinVerify, start)
	if err != nil {
		return nil, fmt.Errorf("relay: hop chain via %s: %w", leg.network, err)
	}
	return resp, nil
}

// sendLeg delivers leg.env to the first responsive address of the leg. The
// message type decides failover. A query is idempotent: it fails over on
// any transport error, and under a deadline an attempt that is overdue is
// abandoned for the next address, so a relay that has answered before but
// now hangs costs a share of the budget, not all of it (see overdueAfter;
// the last address gets what remains). Each attempt is stamped with its
// own budget, so a hub's downstream failover nests inside the share the
// sender waits for, and a reply landing after its attempt was overdue is
// not taken. The abandoned attempt charges its address a failure, which
// demotes it for the next query. An invoke or subscribe is not
// idempotent: it is never cut short, and it fails over only while delivery
// provably did not happen — ErrUnreachable means the connection was never
// established — and any later error (write/read failure, stall, deadline)
// aborts instead of resending, because a relay whose reply was lost may
// already have acted. Exhausting the addresses returns ErrAllRelaysFailed.
func (r *Relay) sendLeg(ctx context.Context, leg hopLeg) (*wire.Envelope, error) {
	idempotent := leg.env.Type == wire.MsgQuery
	deadline, hasDeadline := ctx.Deadline()
	rec := trace.FromContext(ctx)
	var lastErr error
	for i, addr := range leg.addrs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		attemptCtx, cancel := ctx, context.CancelFunc(func() {})
		var overdue time.Time // zero unless the attempt is cut short
		if left := len(leg.addrs) - i; idempotent && hasDeadline && left > 1 {
			if d, ok := r.health.overdueAfter(addr, time.Until(deadline), left); ok {
				overdue = time.Now().Add(d)
				attemptCtx, cancel = context.WithDeadline(ctx, overdue)
			}
		}
		stampDeadline(attemptCtx, leg.env) // per attempt: the relative budget decays
		r.countFanoutAttempt()
		start := rec.Start()
		reply, err := r.observeSend(attemptCtx, addr, leg.env)
		cancel()
		if err == nil && !overdue.IsZero() && !time.Now().Before(overdue) {
			// A late timer let through a reply from after the attempt was
			// overdue. The remote's stamped budget ended then too, so the
			// reply is most likely its own deadline error: fail over.
			err = fmt.Errorf("relay: reply from %s after its share of the budget: %w", addr, context.DeadlineExceeded)
		}
		if rec != nil {
			recordAttempt(rec, start, leg.network, reply, err)
		}
		if err == nil {
			return reply, nil
		}
		lastErr = err
		if !idempotent && !errors.Is(err, ErrUnreachable) {
			return nil, err
		}
	}
	if lastErr == nil {
		lastErr = ctx.Err()
	}
	return nil, fmt.Errorf("%w for %s: %w", ErrAllRelaysFailed, leg.network, lastErr)
}

// recordAttempt records a traced transport attempt as queue time: all of
// it when the attempt failed, otherwise what is left after the next
// relay's serve span, whose spans it merges first.
func recordAttempt(rec *trace.Recorder, start time.Time, next string, reply *wire.Envelope, err error) {
	d := time.Since(start)
	if err == nil {
		rec.Merge(reply.Spans())
		if serve, ok := trace.ServeOf(reply.Spans(), next); ok && serve <= d {
			d -= serve
		}
	}
	rec.Record(trace.Queue, start, d)
}

// stampDeadline records ctx's remaining budget in the envelope, relative
// (TimeoutNanos), so the next relay inherits it on its own clock. Because
// the budget goes stale as time passes, sendLeg restamps before every
// transport attempt: a failover send after a slow first attempt must carry
// the budget remaining now, not the budget at first stamp. A bounded
// context stamps at least 1 ns, so a budget spent before the send reaches
// the receiver as spent, never as unbounded.
func stampDeadline(ctx context.Context, env *wire.Envelope) {
	env.TimeoutNanos = 0
	if deadline, ok := ctx.Deadline(); ok {
		env.TimeoutNanos = uint64(max(time.Until(deadline), 1))
	}
}

// forward carries a query or invoke envelope one hop closer to its target
// along the outbound path. The hub adds only its structural guards, its pin,
// its counters and verbatim relay of downstream refusals. It keeps no
// outcome: a resent invoke is forwarded again, and the source relay answers
// it from its ledger instead of executing twice.
func (r *Relay) forward(ctx context.Context, env *wire.Envelope, q *wire.Query) *wire.Envelope {
	var buf [2]hopLeg
	legs, err := r.hubLegs(buf[:], env, q.TargetNetwork)
	var resp *wire.QueryResponse
	if err == nil {
		resp, err = r.walk(ctx, q, legs)
	}
	if err == nil {
		rec := trace.FromContext(ctx)
		start := rec.Start()
		err = proof.AppendHopPin(resp, q, r.localNetwork, r.forwarderIdentity())
		rec.End(trace.PinSign, start)
	}
	if err != nil {
		var refusal remoteRefusal
		if errors.As(err, &refusal) {
			// A downstream refusal (cycle, TTL, no route, rate limit).
			return errEnvelope(env.RequestID, string(refusal))
		}
		r.countError()
		return errEnvelope(env.RequestID, err.Error())
	}
	if env.Type == wire.MsgInvoke {
		r.countForwardedInvoke()
	} else {
		r.countForwardedQuery()
	}
	return wire.ResponseEnvelope(env.RequestID, resp)
}

// hubLegs applies the structural forwarding guards to an incoming envelope
// and resolves its legs into buf.
func (r *Relay) hubLegs(buf []hopLeg, env *wire.Envelope, target string) ([]hopLeg, error) {
	if env.RouteContains(r.localNetwork) {
		return nil, fmt.Errorf("%w: %q already traversed route %v", ErrRoutingCycle, r.localNetwork, env.Route)
	}
	maxHops := env.MaxHops
	if maxHops == 0 {
		maxHops = r.routeTable().MaxHops()
	}
	// The route lists one entry per leg already taken; forwarding adds one
	// more.
	if uint64(len(env.Route))+1 > maxHops {
		return nil, fmt.Errorf("%w: route %v at limit %d", ErrHopLimit, env.Route, maxHops)
	}
	legs, err := r.legs(buf, env, target, false)
	if err != nil {
		return nil, fmt.Errorf("%w: %q not served by this relay", ErrNoRoute, target)
	}
	return legs, nil
}
