// Multi-hop forwarding: the server-side relay leg of a transitive route
// (origin → hub … → source) and the origin-side fallback that starts one.
//
// A relay with forwarding enabled (EnableForwarding) treats a query or
// invoke for a network it has no driver for as something to carry closer:
// it re-wraps the envelope under the remaining deadline budget (the
// serving context HandleEnvelope derived via remainingBudget — each hop
// re-applies the laxer-interpretation rule, and sendFanout restamps both
// budget encodings per attempt), appends its own network to the explicit
// route list so cycles are refused structurally at the next hop, and
// bounds the walk with the envelope's hop TTL. On the return path it
// authenticates the downstream hop chain before extending it with its own
// signed pin — a forwarder never launders an unverifiable path upstream
// under its signature. Forwarded legs go through the same
// sendFanout/sendAtMostOnce machinery as client-facing requests, so every
// hub address feeds the per-address health tracker and circuit breaker,
// and routing automatically prefers healthy hubs.
package relay

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/proof"
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
	// yields a next hop for a target network.
	ErrNoRoute = errors.New("relay: no route to network")
)

// hopLeg is one candidate next hop: the network whose relays are
// contacted and the health-ordered addresses to try. direct marks the
// target network itself rather than a via.
type hopLeg struct {
	network string
	addrs   []string
	direct  bool
}

// forwardLegs builds the candidate legs toward target, direct first: the
// target's own relays when discovery resolves them, then each configured
// via network in table order. Vias already on the envelope's route are
// skipped — the next hop would refuse the cycle anyway — as are
// degenerate self/target vias. Legs whose network discovery cannot
// resolve are dropped.
func (r *Relay) forwardLegs(target string, onRoute func(string) bool) []hopLeg {
	var legs []hopLeg
	if addrs, err := r.resolveOrdered(target); err == nil {
		legs = append(legs, hopLeg{network: target, addrs: addrs, direct: true})
	}
	for _, via := range r.routeTable().NextHops(target) {
		if via == r.localNetwork || via == target || (onRoute != nil && onRoute(via)) {
			continue
		}
		if addrs, err := r.resolveOrdered(via); err == nil {
			legs = append(legs, hopLeg{network: via, addrs: addrs})
		}
	}
	return legs
}

// checkForward applies the structural forwarding guards to an incoming
// envelope and resolves the candidate legs. A non-empty refusal string
// means the envelope must be refused with that diagnostic.
func (r *Relay) checkForward(env *wire.Envelope, target string) (legs []hopLeg, refusal string) {
	if env.RouteContains(r.localNetwork) {
		return nil, fmt.Sprintf("%v: %q already traversed route %v", ErrRoutingCycle, r.localNetwork, env.Route)
	}
	maxHops := env.MaxHops
	if maxHops == 0 {
		maxHops = r.routeTable().MaxHops()
	}
	// The route lists one entry per leg already taken; forwarding adds
	// one more.
	if uint64(len(env.Route))+1 > maxHops {
		return nil, fmt.Sprintf("%v: route %v at limit %d", ErrHopLimit, env.Route, maxHops)
	}
	legs = r.forwardLegs(target, env.RouteContains)
	if len(legs) == 0 {
		return nil, fmt.Sprintf("%v: %q not served by this relay", ErrNoRoute, target)
	}
	return legs, ""
}

// forwardedEnvelope copies env with this relay appended to the route. The
// budget fields are restamped from the serving context on every transport
// attempt, so the copy carries whatever budget remains here, not what the
// origin stamped.
func (r *Relay) forwardedEnvelope(env *wire.Envelope) *wire.Envelope {
	out := *env
	out.Route = append(append([]string(nil), env.Route...), r.localNetwork)
	return &out
}

// sealForwardedResponse authenticates the hop chain a downstream reply
// carries and extends it with this relay's pin. For a via leg the chain
// must be non-empty and end with the via's own pin (truncation shows here);
// for a direct leg to the source, any pins present must still verify.
func (r *Relay) sealForwardedResponse(env *wire.Envelope, q *wire.Query, resp *wire.QueryResponse, leg hopLeg) *wire.Envelope {
	var err error
	if leg.direct {
		_, err = proof.VerifyHopChain(q, resp)
	} else {
		_, err = proof.VerifyHopChainVia(q, resp, leg.network)
	}
	if err != nil {
		r.countError()
		return errEnvelope(env.RequestID, fmt.Sprintf("downstream hop chain via %s: %v", leg.network, err))
	}
	if err := proof.AppendHopPin(resp, q, r.localNetwork, r.forwarderIdentity()); err != nil {
		r.countError()
		return errEnvelope(env.RequestID, err.Error())
	}
	return responseEnvelope(env.RequestID, resp)
}

// forwardQuery relays a query envelope one hop closer to its target.
// Queries are idempotent, so legs fail over freely (hedged fan-out within
// a leg, next leg on failure).
func (r *Relay) forwardQuery(ctx context.Context, env *wire.Envelope, q *wire.Query) *wire.Envelope {
	legs, refusal := r.checkForward(env, q.TargetNetwork)
	if refusal != "" {
		r.countError()
		return errEnvelope(env.RequestID, refusal)
	}
	fwd := r.forwardedEnvelope(env)
	var lastErr error
	for _, leg := range legs {
		reply, err := r.sendFanout(ctx, leg.network, leg.addrs, fwd)
		if err != nil {
			lastErr = err
			continue
		}
		if reply.Type == wire.MsgError {
			// A downstream refusal (cycle, TTL, no route, rate limit) is
			// relayed verbatim under our envelope ID.
			return errEnvelope(env.RequestID, string(reply.Payload))
		}
		resp, err := wire.UnmarshalQueryResponse(reply.Payload)
		if err != nil {
			r.countError()
			return errEnvelope(env.RequestID, fmt.Sprintf("malformed response via %s: %v", leg.network, err))
		}
		out := r.sealForwardedResponse(env, q, resp, leg)
		if out.Type == wire.MsgQueryResponse {
			r.countForwardedQuery()
		}
		return out
	}
	r.countError()
	return errEnvelope(env.RequestID, fmt.Sprintf("%v: %s: every leg failed: %v", ErrNoRoute, q.TargetNetwork, lastErr))
}

// forwardInvoke relays an invoke envelope one hop closer to its target.
// Invokes are not idempotent: within a leg sendAtMostOnce fails over only
// while delivery provably never happened, and the next leg is tried only
// when the whole previous leg was unreachable. A hub keeps no outcome: a
// resend of the same request is forwarded again, and the source relay
// answers it from its ledger instead of executing twice.
func (r *Relay) forwardInvoke(ctx context.Context, env *wire.Envelope, q *wire.Query) *wire.Envelope {
	legs, refusal := r.checkForward(env, q.TargetNetwork)
	if refusal != "" {
		r.countError()
		return errEnvelope(env.RequestID, refusal)
	}
	fwd := r.forwardedEnvelope(env)
	var lastErr error
	for _, leg := range legs {
		reply, err := r.sendAtMostOnce(ctx, leg.network, leg.addrs, fwd)
		if err != nil {
			if errors.Is(err, ErrAllRelaysFailed) {
				lastErr = err
				continue // provably undelivered on every address of this leg
			}
			r.countError()
			return errEnvelope(env.RequestID, fmt.Sprintf("forward invoke via %s: %v", leg.network, err))
		}
		if reply.Type == wire.MsgError {
			return errEnvelope(env.RequestID, string(reply.Payload))
		}
		resp, err := wire.UnmarshalQueryResponse(reply.Payload)
		if err != nil {
			r.countError()
			return errEnvelope(env.RequestID, fmt.Sprintf("malformed response via %s: %v", leg.network, err))
		}
		out := r.sealForwardedResponse(env, q, resp, leg)
		if out.Type == wire.MsgQueryResponse {
			r.countForwardedInvoke()
		}
		return out
	}
	r.countError()
	return errEnvelope(env.RequestID, fmt.Sprintf("%v: %s: every leg failed: %v", ErrNoRoute, q.TargetNetwork, lastErr))
}

// routedLegs builds origin-side via legs for a target discovery could not
// resolve directly.
func (r *Relay) routedLegs(target string) []hopLeg {
	var legs []hopLeg
	for _, via := range r.routeTable().NextHops(target) {
		if via == r.localNetwork || via == target {
			continue
		}
		if addrs, err := r.resolveOrdered(via); err == nil {
			legs = append(legs, hopLeg{network: via, addrs: addrs})
		}
	}
	return legs
}

// routedEnvelope stamps the multi-hop fields on an origin envelope: the
// route opens with this relay's network and the TTL comes from the route
// table.
func (r *Relay) routedEnvelope(msgType wire.MsgType, q *wire.Query) *wire.Envelope {
	return &wire.Envelope{
		Version:   wire.ProtocolVersion,
		Type:      msgType,
		RequestID: q.RequestID,
		Payload:   q.Marshal(),
		Route:     []string{r.localNetwork},
		MaxHops:   r.routeTable().MaxHops(),
	}
}

// queryViaRoute is the origin-side fallback of Query: discovery could not
// resolve the target, so the request is launched down each configured via
// in turn. A response that comes back through a via must carry a hop
// chain ending with that via's pin — the origin knows which hub it handed
// the request to, which is what makes whole-chain truncation detectable.
func (r *Relay) queryViaRoute(ctx context.Context, q *wire.Query, resolveErr error) (*wire.QueryResponse, error) {
	legs := r.routedLegs(q.TargetNetwork)
	if len(legs) == 0 {
		return nil, resolveErr
	}
	env := r.routedEnvelope(wire.MsgQuery, q)
	lastErr := resolveErr
	for _, leg := range legs {
		reply, err := r.sendFanout(ctx, leg.network, leg.addrs, env)
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := parseQueryReply(reply)
		if err != nil {
			return nil, err
		}
		if _, err := proof.VerifyHopChainVia(q, resp, leg.network); err != nil {
			return nil, err
		}
		return resp, nil
	}
	return nil, fmt.Errorf("%w: %s: %w", ErrNoRoute, q.TargetNetwork, lastErr)
}

// invokeViaRoute is the origin-side fallback of Invoke. At-most-once
// semantics extend across legs: the next via is tried only when the whole
// previous leg was provably unreachable.
func (r *Relay) invokeViaRoute(ctx context.Context, q *wire.Query, resolveErr error) (*wire.QueryResponse, error) {
	legs := r.routedLegs(q.TargetNetwork)
	if len(legs) == 0 {
		return nil, resolveErr
	}
	env := r.routedEnvelope(wire.MsgInvoke, q)
	lastErr := resolveErr
	for _, leg := range legs {
		reply, err := r.sendAtMostOnce(ctx, leg.network, leg.addrs, env)
		if err != nil {
			if errors.Is(err, ErrAllRelaysFailed) {
				lastErr = err
				continue
			}
			return nil, err
		}
		resp, err := parseQueryReply(reply)
		if err != nil {
			return nil, err
		}
		if _, err := proof.VerifyHopChainVia(q, resp, leg.network); err != nil {
			return nil, err
		}
		return resp, nil
	}
	return nil, fmt.Errorf("%w: %s: %w", ErrNoRoute, q.TargetNetwork, lastErr)
}
