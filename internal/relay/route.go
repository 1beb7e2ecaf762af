package relay

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/msp"
)

// DefaultMaxHops bounds a multi-hop walk when neither the origin's route
// table nor the envelope stamps an explicit TTL: at most this many
// relay-to-relay transport legs. Four legs cover a three-intermediate
// chain, deeper than any consortium topology the surveys describe.
const DefaultMaxHops = 4

// RouteTable holds a relay's static multi-hop routes: for each target
// network, the ordered list of via networks whose relays can carry a
// request closer. Resolution is the same at every relay, origin or hub:
// direct first, then vias on failure — the target's own relays when
// discovery resolves them, and the table's vias in the order configured
// when there are none or every one failed (for an invoke, only when
// nothing was delivered). The zero table (or an empty one) routes nothing;
// a relay with forwarding enabled and an empty table still forwards to
// targets its own discovery resolves directly.
type RouteTable struct {
	mu      sync.RWMutex
	routes  map[string][]string
	maxHops uint64
}

// NewRouteTable returns an empty route table.
func NewRouteTable() *RouteTable {
	return &RouteTable{routes: make(map[string][]string)}
}

// Set replaces the via list for a target network. An empty via list
// removes the entry.
func (t *RouteTable) Set(target string, vias ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(vias) == 0 {
		delete(t.routes, target)
		return
	}
	t.routes[target] = append([]string(nil), vias...)
}

// NextHops returns the configured via networks for a target, in
// preference order, nil when the table has no entry.
func (t *RouteTable) NextHops(target string) []string {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]string(nil), t.routes[target]...)
}

// SetMaxHops overrides the hop TTL the origin stamps on routed envelopes.
// Zero keeps DefaultMaxHops.
func (t *RouteTable) SetMaxHops(n uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.maxHops = n
}

// MaxHops returns the effective hop TTL for envelopes routed by this
// table.
func (t *RouteTable) MaxHops() uint64 {
	if t == nil {
		return DefaultMaxHops
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.maxHops == 0 {
		return DefaultMaxHops
	}
	return t.maxHops
}

// Entries returns a sorted copy of the table for display (`netadmin route
// list`).
func (t *RouteTable) Entries() []RouteEntry {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]RouteEntry, 0, len(t.routes))
	for target, vias := range t.routes {
		out = append(out, RouteEntry{Target: target, Vias: append([]string(nil), vias...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target < out[j].Target })
	return out
}

// RouteEntry is one displayable route: a target and its ordered vias.
type RouteEntry struct {
	Target string   `json:"target"`
	Vias   []string `json:"vias"`
}

// ParseRoute parses the "target=via1,via2" form used by relayd's -route
// flag.
func ParseRoute(spec string) (target string, vias []string, err error) {
	target, viaList, ok := strings.Cut(spec, "=")
	target = strings.TrimSpace(target)
	if !ok || target == "" {
		return "", nil, fmt.Errorf("relay: route %q: want target=via1,via2", spec)
	}
	for _, via := range strings.Split(viaList, ",") {
		if via = strings.TrimSpace(via); via != "" {
			vias = append(vias, via)
		}
	}
	if len(vias) == 0 {
		return "", nil, fmt.Errorf("relay: route %q: no via networks", spec)
	}
	return target, vias, nil
}

// EnableForwarding turns this relay into a forwarding hop: requests
// targeting networks it has no driver for are relayed toward the target —
// directly when its own discovery resolves the target, else via the route
// table — and every response it carries back is extended with a hop pin
// signed by id. The identity is mandatory: an unpinned forwarder would
// produce paths the origin cannot authenticate.
func (r *Relay) EnableForwarding(routes *RouteTable, id *msp.Identity) {
	if routes == nil {
		routes = NewRouteTable()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.routes = routes
	r.forwardID = id
}

// SetRoutes installs (or replaces) the client-side route table: Query and
// Invoke try the table's via networks when discovery cannot resolve a
// target directly or every direct relay failed. Unlike EnableForwarding it
// does not make the relay serve forwarded traffic for others.
func (r *Relay) SetRoutes(routes *RouteTable) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.routes = routes
}

// routeTable returns the configured table, possibly nil.
func (r *Relay) routeTable() *RouteTable {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.routes
}

// forwarderIdentity returns the signing identity when forwarding is
// enabled, nil otherwise.
func (r *Relay) forwarderIdentity() *msp.Identity {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.forwardID
}
