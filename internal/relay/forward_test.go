package relay

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/msp"
	"repro/internal/proof"
	"repro/internal/wire"
)

// forwardChain is an in-process multi-hop topology: an origin relay whose
// discovery knows only the first hub, a chain of forwarding hubs each of
// which can resolve only the next hub (the last resolves the source), and
// a source relay serving "src-net" with a tallyTxDriver. Registries are
// deliberately partitioned per relay, so the only way a request reaches
// the source is the full walk.
type forwardChain struct {
	origin *Relay
	hubs   []*Relay // hubs[0] is adjacent to the origin
	source *Relay
	driver *tallyTxDriver
}

func hubIdentity(t testing.TB, i int) *msp.Identity {
	t.Helper()
	ca, err := msp.NewCA(fmt.Sprintf("hub-%d-org", i))
	if err != nil {
		t.Fatalf("hub CA %d: %v", i, err)
	}
	id, err := ca.Issue(fmt.Sprintf("hub-relay-%d", i), msp.RolePeer)
	if err != nil {
		t.Fatalf("hub identity %d: %v", i, err)
	}
	return id
}

func buildForwardChain(t testing.TB, hubCount int) *forwardChain {
	t.Helper()
	transport := NewHub()
	driver := &tallyTxDriver{response: []byte("forwarded-result")}
	src := New("src-net", NewStaticRegistry(), transport)
	src.RegisterDriver("src-net", driver)
	transport.Attach("src:1", src)

	chain := &forwardChain{source: src, driver: driver}
	for i := hubCount; i >= 1; i-- {
		reg := NewStaticRegistry()
		routes := NewRouteTable()
		if i == hubCount {
			reg.Register("src-net", "src:1")
		} else {
			next := fmt.Sprintf("hub-%d-net", i+1)
			reg.Register(next, fmt.Sprintf("hub-%d:1", i+1))
			routes.Set("src-net", next)
		}
		h := New(fmt.Sprintf("hub-%d-net", i), reg, transport)
		h.EnableForwarding(routes, hubIdentity(t, i))
		transport.Attach(fmt.Sprintf("hub-%d:1", i), h)
		chain.hubs = append([]*Relay{h}, chain.hubs...)
	}

	originReg := NewStaticRegistry()
	originRoutes := NewRouteTable()
	if hubCount > 0 {
		originReg.Register("hub-1-net", "hub-1:1")
		originRoutes.Set("src-net", "hub-1-net")
	} else {
		originReg.Register("src-net", "src:1")
	}
	chain.origin = New("we-trade", originReg, transport)
	chain.origin.SetRoutes(originRoutes)
	return chain
}

func forwardQuerySpec(requestID string) *wire.Query {
	return &wire.Query{
		RequestID:         requestID,
		RequestingNetwork: "we-trade",
		TargetNetwork:     "src-net",
		Contract:          "cc",
		Function:          "fn",
		Nonce:             []byte("hop-nonce"),
	}
}

func TestRouteTable(t *testing.T) {
	tbl := NewRouteTable()
	if got := tbl.NextHops("x"); got != nil {
		t.Fatalf("empty table NextHops = %v", got)
	}
	tbl.Set("src-net", "hub-b", "hub-a")
	hops := tbl.NextHops("src-net")
	if len(hops) != 2 || hops[0] != "hub-b" {
		t.Fatalf("NextHops = %v", hops)
	}
	hops[0] = "mutated" // callers get a copy
	if tbl.NextHops("src-net")[0] != "hub-b" {
		t.Fatal("NextHops returned shared storage")
	}
	tbl.Set("a-net", "hub-a")
	entries := tbl.Entries()
	if len(entries) != 2 || entries[0].Target != "a-net" || entries[1].Target != "src-net" {
		t.Fatalf("Entries = %+v", entries)
	}
	tbl.Set("a-net") // empty via list removes
	if got := tbl.NextHops("a-net"); got != nil {
		t.Fatalf("after removal NextHops = %v", got)
	}
	if tbl.MaxHops() != DefaultMaxHops {
		t.Fatalf("default MaxHops = %d", tbl.MaxHops())
	}
	tbl.SetMaxHops(7)
	if tbl.MaxHops() != 7 {
		t.Fatalf("MaxHops = %d", tbl.MaxHops())
	}
	var nilTable *RouteTable
	if nilTable.MaxHops() != DefaultMaxHops || nilTable.NextHops("x") != nil || nilTable.Entries() != nil {
		t.Fatal("nil table is not inert")
	}
}

func TestParseRoute(t *testing.T) {
	target, vias, err := ParseRoute("src-net=hub-1-net, hub-2-net")
	if err != nil || target != "src-net" || len(vias) != 2 || vias[1] != "hub-2-net" {
		t.Fatalf("ParseRoute = %q %v %v", target, vias, err)
	}
	for _, bad := range []string{"", "src-net", "=hub", "src-net=", "src-net=,"} {
		if _, _, err := ParseRoute(bad); err == nil {
			t.Fatalf("ParseRoute(%q) accepted", bad)
		}
	}
}

// TestMultiHopQueryPins drives a query over 1, 2 and 3 intermediate hubs
// and checks the returned proof pins: one per hub, nearest the source
// first, verifiable end-to-end at the origin, and broken by any single-pin
// mutation.
func TestMultiHopQueryPins(t *testing.T) {
	for _, hubCount := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("hubs=%d", hubCount), func(t *testing.T) {
			chain := buildForwardChain(t, hubCount)
			q := forwardQuerySpec(fmt.Sprintf("fwd-q-%d", hubCount))
			resp, err := chain.origin.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			if resp.Error != "" {
				t.Fatalf("remote error: %s", resp.Error)
			}
			if len(resp.HopPins) != hubCount {
				t.Fatalf("pins = %d, want %d", len(resp.HopPins), hubCount)
			}
			// Nearest-source first: the last hub on the walk appends first.
			for i, pin := range resp.HopPins {
				if want := fmt.Sprintf("hub-%d-net", hubCount-i); pin.Network != want {
					t.Fatalf("pin %d = %q, want %q", i, pin.Network, want)
				}
			}
			hops, err := proof.VerifyHopChainVia(q, resp, "hub-1-net")
			if err != nil {
				t.Fatalf("VerifyHopChainVia: %v", err)
			}
			if len(hops) != hubCount {
				t.Fatalf("verified hops = %d", len(hops))
			}
			// Any single-pin mutation breaks the whole chain.
			for i := range resp.HopPins {
				mutated := *resp
				mutated.HopPins = append([]wire.HopPin(nil), resp.HopPins...)
				mutated.HopPins[i].Pin = append([]byte(nil), resp.HopPins[i].Pin...)
				mutated.HopPins[i].Pin[0] ^= 0x01
				if _, err := proof.VerifyHopChainVia(q, &mutated, "hub-1-net"); err == nil {
					t.Fatalf("chain with pin %d mutated verified", i)
				}
			}
			// Every hub forwarded exactly once and counted it, and the
			// forwarded leg fed its health tracker for the downstream address.
			for i, h := range chain.hubs {
				if s := h.Stats(); s.ForwardedQueries != 1 || s.ForwardedInvokes != 0 {
					t.Fatalf("hub %d stats = %+v", i, s)
				}
				downstream := "src:1"
				if i+1 < hubCount {
					downstream = fmt.Sprintf("hub-%d:1", i+2)
				}
				h.health.mu.Lock()
				_, observed := h.health.byAddr[downstream]
				h.health.mu.Unlock()
				if !observed {
					t.Fatalf("hub %d health tracker has no entry for forwarded address %s", i, downstream)
				}
			}
		})
	}
}

// TestDirectRouteBypassesTable pins the direct-first rule: when discovery
// resolves the target, the route table is never consulted and the response
// carries no pins.
func TestDirectRouteBypassesTable(t *testing.T) {
	chain := buildForwardChain(t, 0)
	resp, err := chain.origin.Query(context.Background(), forwardQuerySpec("direct-q"))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(resp.HopPins) != 0 {
		t.Fatalf("direct response carries %d pins", len(resp.HopPins))
	}
}

// TestMultiHopInvokeExactlyOnce drives the same invoke twice through a
// two-hub chain: the driver executes once, the duplicate is forwarded again
// by both hubs and replayed from the source's ledger, and both responses
// carry a verifiable hop chain.
func TestMultiHopInvokeExactlyOnce(t *testing.T) {
	chain := buildForwardChain(t, 2)
	q := forwardQuerySpec("fwd-inv-1")
	first, err := chain.origin.Invoke(context.Background(), q)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if first.Error != "" {
		t.Fatalf("remote error: %s", first.Error)
	}
	second, err := chain.origin.Invoke(context.Background(), q)
	if err != nil {
		t.Fatalf("duplicate Invoke: %v", err)
	}
	if got := chain.driver.executions.Load(); got != 1 {
		t.Fatalf("driver executed %d times", got)
	}
	for name, resp := range map[string]*wire.QueryResponse{"first": first, "replay": second} {
		if len(resp.HopPins) != 2 {
			t.Fatalf("%s response pins = %d", name, len(resp.HopPins))
		}
		if _, err := proof.VerifyHopChainVia(q, resp, "hub-1-net"); err != nil {
			t.Fatalf("%s response chain: %v", name, err)
		}
	}
	// No hub remembers an outcome: each forwarded both attempts, and the
	// source answered the second from its ledger.
	for i, h := range chain.hubs {
		if s := h.Stats(); s.ForwardedInvokes != 2 {
			t.Fatalf("hub-%d ForwardedInvokes = %d, want 2", i+1, s.ForwardedInvokes)
		}
	}
	if s := chain.source.Stats(); s.InvokeReplays != 1 || s.InvokesServed != 1 {
		t.Fatalf("source stats = %+v, want 1 execution and 1 ledger replay", s)
	}
}

// TestForwardRefusals pins the structural guards at a forwarding relay:
// cyclic routes, exhausted hop TTLs and unroutable targets are refused
// with an error envelope, never forwarded.
func TestForwardRefusals(t *testing.T) {
	chain := buildForwardChain(t, 1)
	hub := chain.hubs[0]
	mkEnv := func(q *wire.Query, route []string, maxHops uint64) *wire.Envelope {
		return &wire.Envelope{
			Version:   wire.ProtocolVersion,
			Type:      wire.MsgQuery,
			RequestID: q.RequestID,
			Payload:   q.Marshal(),
			Route:     route,
			MaxHops:   maxHops,
		}
	}
	cases := []struct {
		name string
		env  *wire.Envelope
		want string
	}{
		{"cycle", mkEnv(forwardQuerySpec("r-cycle"), []string{"we-trade", "hub-1-net"}, 0), "routing cycle"},
		{"hop-limit", mkEnv(forwardQuerySpec("r-ttl"), []string{"we-trade"}, 1), "hop limit"},
		{"default-ttl", mkEnv(forwardQuerySpec("r-ttl4"), []string{"a", "b", "c", "d"}, 0), "hop limit"},
		{"no-route", mkEnv(&wire.Query{RequestID: "r-ghost", RequestingNetwork: "we-trade",
			TargetNetwork: "ghost-net", Contract: "cc", Function: "fn"}, []string{"we-trade"}, 0), "no route"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reply := hub.HandleEnvelope(context.Background(), tc.env)
			if reply.Type != wire.MsgError {
				t.Fatalf("reply = %+v", reply)
			}
			if !strings.Contains(string(reply.Payload), tc.want) {
				t.Fatalf("refusal %q does not mention %q", reply.Payload, tc.want)
			}
		})
	}
}

// TestHopLimitBoundsDeepWalk builds a chain one hub deeper than the
// default TTL allows (4 hubs + source = 5 legs) and checks the refusal
// from the over-limit hub propagates back to the origin.
func TestHopLimitBoundsDeepWalk(t *testing.T) {
	chain := buildForwardChain(t, 4)
	_, err := chain.origin.Query(context.Background(), forwardQuerySpec("deep-q"))
	if err == nil {
		t.Fatal("5-leg walk succeeded past a 4-leg TTL")
	}
	if !strings.Contains(err.Error(), "hop limit") {
		t.Fatalf("err = %v", err)
	}
}

// TestForwardedResponseVerifiedBeforePinning: a hub refuses to extend a
// downstream response whose chain does not check out, so a tampering hub
// cannot launder a forged path through an honest one.
func TestForwardedResponseVerifiedBeforePinning(t *testing.T) {
	chain := buildForwardChain(t, 2)
	// Interpose on hub-1's link to hub-2 with a transport that strips the
	// pins from every response passing through — an on-path adversary
	// erasing the path.
	chain.hubs[0].transport = &pinStrippingTransport{inner: chain.hubs[0].transport, addr: "hub-2:1"}
	_, err := chain.origin.Query(context.Background(), forwardQuerySpec("tamper-q"))
	if err == nil {
		t.Fatal("stripped chain accepted")
	}
	if !strings.Contains(err.Error(), "hop chain") {
		t.Fatalf("err = %v", err)
	}
}

// pinStrippingTransport forwards sends to the inner transport but removes
// the hop pins from query responses returning from one address.
type pinStrippingTransport struct {
	inner Transport
	addr  string
}

func (p *pinStrippingTransport) Send(ctx context.Context, addr string, env *wire.Envelope) (*wire.Envelope, error) {
	reply, err := p.inner.Send(ctx, addr, env)
	if err != nil || addr != p.addr || reply.Type != wire.MsgQueryResponse {
		return reply, err
	}
	resp, derr := wire.UnmarshalQueryResponse(reply.Payload)
	if derr != nil {
		return reply, err
	}
	resp.HopPins = nil
	reply.Payload = resp.Marshal()
	return reply, nil
}
