package relay

import (
	"context"
	"testing"
	"time"
)

// TestTCPFailoverAcrossRealServers runs E4's availability scenario over
// real sockets: two TCP servers front the source network; the primary is
// shut down mid-run and queries fail over to the standby.
func TestTCPFailoverAcrossRealServers(t *testing.T) {
	reg := NewStaticRegistry()
	transport := &TCPTransport{DialTimeout: 500 * time.Millisecond, IOTimeout: 10 * time.Second}
	src := newSourceEnv(t, reg, transport)
	req := newRequester(t)
	configureInterop(t, src, req)
	if _, err := src.admin.Submit("docs", "PutDoc", []byte("bl-77"), []byte("doc")); err != nil {
		t.Fatalf("PutDoc: %v", err)
	}

	primary, err := NewTCPServer(src.relay, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("primary: %v", err)
	}
	standby, err := NewTCPServer(src.relay, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("standby: %v", err)
	}
	defer standby.Close()
	reg.Register("tradelens", primary.Addr(), standby.Addr())

	dest := New("we-trade", reg, transport)

	// Both up.
	resp, err := dest.Query(context.Background(), newQuery(t, req))
	if err != nil || resp.Error != "" {
		t.Fatalf("query with both up: %v %s", err, respError(resp, err))
	}

	// Primary down: failover to the standby must succeed.
	if err := primary.Close(); err != nil {
		t.Fatalf("close primary: %v", err)
	}
	resp, err = dest.Query(context.Background(), newQuery(t, req))
	if err != nil {
		t.Fatalf("failover query: %v", err)
	}
	if resp.Error != "" {
		t.Fatalf("failover remote error: %s", resp.Error)
	}
}

// TestTCPRedundantHubsNestBudgets: an origin reaches the source through a
// hub network fronted by two TCP servers, and the hub's preferred source
// address has answered before but is now hung. Over TCP the hub serves a
// request under the budget stamped in its envelope, so the origin stamps
// each attempt with its own share: the hub's failover to its live source
// address then fits inside the share the origin waits for. The query is
// answered by the first hub server in one attempt, and that live hub is
// charged no failure.
func TestTCPRedundantHubsNestBudgets(t *testing.T) {
	inner := NewHub()
	src := New("src-net", NewStaticRegistry(), inner)
	src.RegisterDriver("src-net", &tallyTxDriver{response: []byte("forwarded-result")})
	inner.Attach("src:hung", src)
	inner.Attach("src:live", src)

	hubReg := NewStaticRegistry()
	hubReg.Register("src-net", "src:hung", "src:live")
	hub := New("hub-1-net", hubReg, inner)
	hub.EnableForwarding(NewRouteTable(), hubIdentity(t, 1))
	answeredBefore(hub, "src:hung", "src:live")
	inner.SetStall("src:hung", true)

	var addrs []string
	for range 2 {
		server, err := NewTCPServer(hub, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("hub server: %v", err)
		}
		defer server.Close()
		addrs = append(addrs, server.Addr())
	}
	transport := &TCPTransport{DialTimeout: time.Second, IOTimeout: 10 * time.Second}
	defer transport.Close()
	originReg := NewStaticRegistry()
	originReg.Register("hub-1-net", addrs...)
	routes := NewRouteTable()
	routes.Set("src-net", "hub-1-net")
	origin := New("we-trade", originReg, transport)
	origin.SetRoutes(routes)
	answeredBefore(origin, addrs...)

	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	if resp, err := origin.Query(ctx, forwardQuerySpec("nest-1")); err != nil || resp.Error != "" {
		t.Fatalf("Query: %s", respError(resp, err))
	}
	if s := hub.Stats(); s.FanoutAttempts != 2 {
		t.Fatalf("hub FanoutAttempts = %d, want 2 (the hung source address, then the live one)", s.FanoutAttempts)
	}
	if s := origin.Stats(); s.FanoutAttempts != 1 {
		t.Fatalf("origin FanoutAttempts = %d, want 1 (the hub answered within its share)", s.FanoutAttempts)
	}
	origin.health.mu.Lock()
	defer origin.health.mu.Unlock()
	if st := origin.health.byAddr[addrs[0]]; st.consecFailures != 0 {
		t.Fatalf("live hub charged %d failures", st.consecFailures)
	}
}
