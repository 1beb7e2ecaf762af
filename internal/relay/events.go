package relay

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/wire"
)

// eventHub tracks local subscriptions to remote events and the remote
// subscriptions this relay is serving as a source.
type eventHub struct {
	mu sync.Mutex
	// local subscriptions: events pushed to us by source relays.
	localSubs map[string]chan wire.Event
	// source-side cancellations for subscriptions we serve.
	serving map[string]func()
}

func newEventHub() *eventHub {
	return &eventHub{
		localSubs: make(map[string]chan wire.Event),
		serving:   make(map[string]func()),
	}
}

// SubscribeRemote registers interest in chaincode events from a remote
// network (cross-network events, §7 future work implemented as an
// extension). It sends a subscription request to the remote relay; matching
// events are pushed back through this relay's discovery-registered address
// and surface on the returned channel. ctx bounds subscription
// establishment only; delivery continues until the returned cancel runs.
func (r *Relay) SubscribeRemote(ctx context.Context, targetNetwork, eventName string, requesterCertPEM []byte) (<-chan wire.Event, func(), error) {
	subID, err := newRequestID()
	if err != nil {
		return nil, nil, err
	}
	sub := &wire.Subscription{
		SubscriptionID:    subID,
		RequestingNetwork: r.localNetwork,
		TargetNetwork:     targetNetwork,
		EventName:         eventName,
		RequesterCertPEM:  requesterCertPEM,
	}
	addrs, err := r.resolveOrdered(targetNetwork)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %s", err, targetNetwork)
	}
	env := &wire.Envelope{
		Version:   wire.ProtocolVersion,
		Type:      wire.MsgSubscribe,
		RequestID: subID,
		Payload:   sub.Marshal(),
	}
	// Direct leg only: subscriptions are not forwarded. Delivery is
	// at-most-once across addresses (sendLeg): failing over to a *different*
	// relay after a delivered-but-lost reply would register a second live
	// subscription on another process and double every event. Same-relay
	// resends are safe (handleSubscribe is idempotent by subscription ID).
	leg := hopLeg{network: targetNetwork, addrs: addrs, direct: true, env: env}
	if _, err := r.walk(ctx, nil, []hopLeg{leg}); err != nil {
		return nil, nil, err
	}

	ch := make(chan wire.Event, 64)
	r.events.mu.Lock()
	r.events.localSubs[subID] = ch
	r.events.mu.Unlock()
	cancel := func() {
		r.events.mu.Lock()
		defer r.events.mu.Unlock()
		if _, ok := r.events.localSubs[subID]; ok {
			delete(r.events.localSubs, subID)
			close(ch)
		}
	}
	return ch, cancel, nil
}

// handleSubscribe serves an incoming subscription request: the local driver
// must support events; matching events are pushed to the requesting
// network's relay.
func (r *Relay) handleSubscribe(ctx context.Context, env *wire.Envelope) *wire.Envelope {
	sub, err := wire.UnmarshalSubscription(env.Payload)
	if err != nil {
		return errEnvelope(env.RequestID, fmt.Sprintf("malformed subscription: %v", err))
	}
	d, ok := r.driverFor(sub.TargetNetwork)
	if !ok {
		return errEnvelope(env.RequestID, fmt.Sprintf("network %q not served by this relay", sub.TargetNetwork))
	}
	src, ok := d.(EventSource)
	if !ok {
		return errEnvelope(env.RequestID, fmt.Sprintf("network %q does not support events", sub.TargetNetwork))
	}
	requesting := sub.RequestingNetwork
	subID := sub.SubscriptionID
	// Idempotency: a resent subscribe (transport retry or failover after a
	// lost reply) must not register a duplicate source-side subscription.
	r.events.mu.Lock()
	_, exists := r.events.serving[subID]
	r.events.mu.Unlock()
	if exists {
		return &wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgQueryResponse, RequestID: env.RequestID}
	}
	// ctx bounds establishment only — it is cancelled once the reply is
	// sent, so per the EventSource contract the driver must not tie the
	// delivery lifetime to it; teardown happens through the cancel func.
	cancel, err := src.SubscribeEvents(ctx, sub.EventName, func(payload []byte, name string, unixNano uint64) {
		ev := &wire.Event{
			SubscriptionID: subID,
			SourceNetwork:  sub.TargetNetwork,
			Name:           name,
			Payload:        payload,
			UnixNano:       unixNano,
		}
		r.pushEvent(requesting, ev)
	})
	if err != nil {
		return errEnvelope(env.RequestID, fmt.Sprintf("subscribe: %v", err))
	}
	r.events.mu.Lock()
	if _, raced := r.events.serving[subID]; raced {
		// A concurrent duplicate won the race; tear down this copy.
		r.events.mu.Unlock()
		cancel()
	} else {
		r.events.serving[subID] = cancel
		r.events.mu.Unlock()
	}
	return &wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgQueryResponse, RequestID: env.RequestID}
}

// pushEvent delivers an event to the requesting network's relay,
// best-effort across its addresses, healthiest first. Delivery is
// asynchronous with respect to any request, so it runs under its own
// bounded context rather than a caller's. Unlike request fan-out,
// circuit-open addresses are skipped outright when a healthier one exists:
// best-effort delivery should not spend a 5s budget probing a relay already
// known dead.
func (r *Relay) pushEvent(requestingNetwork string, ev *wire.Event) {
	addrs, err := r.discovery.Resolve(requestingNetwork)
	if err != nil {
		return
	}
	ordered, open := r.health.order(addrs)
	if open > 0 {
		ordered = ordered[:len(ordered)-open]
	}
	env := &wire.Envelope{
		Version:   wire.ProtocolVersion,
		Type:      wire.MsgEvent,
		RequestID: ev.SubscriptionID,
		Payload:   ev.Marshal(),
	}
	for _, addr := range ordered {
		// Per-address budget: a wedged-but-reachable primary must not
		// consume the whole delivery budget and starve a live standby.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := r.observeSend(ctx, addr, env)
		cancel()
		if err == nil {
			return
		}
	}
}

// handleEvent receives a pushed event and surfaces it to the local
// subscriber.
func (r *Relay) handleEvent(env *wire.Envelope) *wire.Envelope {
	ev, err := wire.UnmarshalEvent(env.Payload)
	if err != nil {
		return errEnvelope(env.RequestID, fmt.Sprintf("malformed event: %v", err))
	}
	r.events.mu.Lock()
	ch, ok := r.events.localSubs[ev.SubscriptionID]
	r.events.mu.Unlock()
	if ok {
		r.countEvent()
		select {
		case ch <- *ev:
		case <-time.After(50 * time.Millisecond):
			// Slow subscriber: drop rather than wedge the server loop.
		}
	}
	return &wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgQueryResponse, RequestID: env.RequestID}
}

// StopServing cancels every source-side subscription this relay serves.
func (r *Relay) StopServing() {
	r.events.mu.Lock()
	defer r.events.mu.Unlock()
	for id, cancel := range r.events.serving {
		cancel()
		delete(r.events.serving, id)
	}
}
