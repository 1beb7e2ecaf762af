package relay

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/wire"
)

// ErrUnreachable is returned when a transport cannot reach an address.
var ErrUnreachable = errors.New("relay: address unreachable")

// Hub is an in-process Transport: relays attach under string addresses and
// envelopes are delivered by direct function call. It gives tests and
// single-process deployments the exact semantics of the TCP transport
// without sockets, and supports fault injection by detaching relays,
// marking addresses down, or stalling them.
type Hub struct {
	mu      sync.RWMutex
	relays  map[string]*Relay
	down    map[string]bool
	stalled map[string]bool
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{
		relays:  make(map[string]*Relay),
		down:    make(map[string]bool),
		stalled: make(map[string]bool),
	}
}

// Attach registers a relay under an address.
func (h *Hub) Attach(addr string, r *Relay) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.relays[addr] = r
}

// SetDown marks an address as failing without removing it, simulating a
// crashed or DoS-ed relay (§5 availability analysis).
func (h *Hub) SetDown(addr string, down bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.down[addr] = down
}

// SetStall marks an address as hung: sends to it accept the envelope but
// never reply, blocking until the caller's context expires. This is the
// fault SetDown cannot simulate — a relay that is reachable but wedged —
// and is what deadline and overdue-attempt behaviour is tested against.
func (h *Hub) SetStall(addr string, stalled bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stalled[addr] = stalled
}

// Send implements Transport.
func (h *Hub) Send(ctx context.Context, addr string, env *wire.Envelope) (*wire.Envelope, error) {
	h.mu.RLock()
	target, ok := h.relays[addr]
	down := h.down[addr]
	stalled := h.stalled[addr]
	h.mu.RUnlock()
	if !ok || down {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, addr)
	}
	if stalled {
		<-ctx.Done()
		return nil, fmt.Errorf("relay: send to %s: %w", addr, ctx.Err())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Round-trip through the wire format so in-process behaviour matches
	// the TCP transport byte for byte.
	encoded := env.Marshal()
	decoded, err := wire.UnmarshalEnvelope(encoded)
	if err != nil {
		return nil, fmt.Errorf("relay: encode request: %w", err)
	}
	reply := target.handle(ctx, decoded)
	replyBytes := reply.Marshal()
	out, err := wire.UnmarshalEnvelope(replyBytes)
	if err != nil {
		return nil, fmt.Errorf("relay: decode reply: %w", err)
	}
	return out, nil
}
