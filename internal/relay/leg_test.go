package relay

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/proof"
	"repro/internal/wire"
)

// legRecord is one envelope a relay put on the wire: who sent it, where,
// and the multi-hop fields it carried.
type legRecord struct {
	from, addr string
	typ        wire.MsgType
	route      []string
	maxHops    uint64
}

func (l legRecord) String() string {
	return fmt.Sprintf("%s→%s %s route=%v maxHops=%d", l.from, l.addr, l.typ, l.route, l.maxHops)
}

// legRecorder collects the envelopes of every relay it wraps, in send order.
type legRecorder struct {
	mu      sync.Mutex
	records []legRecord
}

// wrap interposes on r's transport, labelling its sends with from.
func (l *legRecorder) wrap(r *Relay, from string) {
	r.transport = &recordingTransport{inner: r.transport, from: from, rec: l}
}

type recordingTransport struct {
	inner Transport
	from  string
	rec   *legRecorder
}

func (t *recordingTransport) Send(ctx context.Context, addr string, env *wire.Envelope) (*wire.Envelope, error) {
	t.rec.mu.Lock()
	t.rec.records = append(t.rec.records, legRecord{
		from: t.from, addr: addr, typ: env.Type,
		route: slices.Clone(env.Route), maxHops: env.MaxHops,
	})
	t.rec.mu.Unlock()
	return t.inner.Send(ctx, addr, env)
}

// TestLegEnvelopes pins the multi-hop fields of every kind of leg, for
// queries and invokes alike: an origin's direct leg carries no route and no
// hop TTL; an origin's via leg opens the route with the origin and stamps
// its table's TTL; a hub appends itself on its via and direct legs and
// keeps the TTL it was handed.
func TestLegEnvelopes(t *testing.T) {
	for _, typ := range []wire.MsgType{wire.MsgQuery, wire.MsgInvoke} {
		t.Run(typ.String(), func(t *testing.T) {
			direct := buildForwardChain(t, 0)
			routed := buildForwardChain(t, 2)
			routed.origin.routeTable().SetMaxHops(3)
			rec := &legRecorder{}
			rec.wrap(direct.origin, "origin")
			rec.wrap(routed.origin, "origin")
			rec.wrap(routed.hubs[0], "hub-1")
			rec.wrap(routed.hubs[1], "hub-2")

			for _, chain := range []*forwardChain{direct, routed} {
				q := forwardQuerySpec("legs-" + typ.String())
				send := chain.origin.Query
				if typ == wire.MsgInvoke {
					send = chain.origin.Invoke
				}
				if resp, err := send(context.Background(), q); err != nil || resp.Error != "" {
					t.Fatalf("%s", respError(resp, err))
				}
			}

			want := []legRecord{
				{from: "origin", addr: "src:1", typ: typ},
				{from: "origin", addr: "hub-1:1", typ: typ, route: []string{"we-trade"}, maxHops: 3},
				{from: "hub-1", addr: "hub-2:1", typ: typ, route: []string{"we-trade", "hub-1-net"}, maxHops: 3},
				{from: "hub-2", addr: "src:1", typ: typ, route: []string{"we-trade", "hub-1-net", "hub-2-net"}, maxHops: 3},
			}
			rec.mu.Lock()
			defer rec.mu.Unlock()
			if len(rec.records) != len(want) {
				t.Fatalf("recorded %d legs, want %d: %v", len(rec.records), len(want), rec.records)
			}
			for i, got := range rec.records {
				if got.String() != want[i].String() {
					t.Errorf("leg %d = %v, want %v", i, got, want[i])
				}
			}
		})
	}
}

// fallThroughChain is a one-hub chain whose origin also resolves the source
// directly, at an address only the origin uses, so that address can fail
// without cutting the hub's own leg to the source.
func fallThroughChain(t *testing.T) (*forwardChain, *Hub) {
	t.Helper()
	chain := buildForwardChain(t, 1)
	hub := chain.origin.transport.(*Hub)
	hub.Attach("src:direct", chain.source)
	chain.origin.discovery.(*StaticRegistry).Register("src-net", "src:direct")
	return chain, hub
}

// TestOriginFallsThroughToVia: an origin whose direct relays fail tries its
// configured vias, as a hub does. A query falls through on any transport
// failure; an invoke only when the direct address was unreachable, so
// nothing can have been delivered. A stalled direct address may have taken
// the invoke, so it fails the request with zero executions rather than
// risking a second one down the via.
func TestOriginFallsThroughToVia(t *testing.T) {
	t.Run("query", func(t *testing.T) {
		chain, hub := fallThroughChain(t)
		hub.SetDown("src:direct", true)
		q := forwardQuerySpec("fall-q")
		resp, err := chain.origin.Query(context.Background(), q)
		if err != nil || resp.Error != "" {
			t.Fatalf("Query: %s", respError(resp, err))
		}
		if _, err := proof.VerifyHopChainVia(q, resp, "hub-1-net"); err != nil {
			t.Fatalf("response did not come through the via: %v", err)
		}
		if s := chain.hubs[0].Stats(); s.ForwardedQueries != 1 {
			t.Fatalf("hub ForwardedQueries = %d, want 1", s.ForwardedQueries)
		}
	})
	t.Run("invoke-unreachable", func(t *testing.T) {
		chain, hub := fallThroughChain(t)
		hub.SetDown("src:direct", true)
		q := forwardQuerySpec("fall-inv")
		resp, err := chain.origin.Invoke(context.Background(), q)
		if err != nil || resp.Error != "" {
			t.Fatalf("Invoke: %s", respError(resp, err))
		}
		if _, err := proof.VerifyHopChainVia(q, resp, "hub-1-net"); err != nil {
			t.Fatalf("response did not come through the via: %v", err)
		}
		if got := chain.driver.executions.Load(); got != 1 {
			t.Fatalf("driver executed %d times, want 1", got)
		}
	})
	t.Run("invoke-stalled", func(t *testing.T) {
		chain, hub := fallThroughChain(t)
		hub.SetStall("src:direct", true)
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		if _, err := chain.origin.Invoke(ctx, forwardQuerySpec("stall-inv")); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want DeadlineExceeded from the stalled direct address", err)
		}
		if got := chain.driver.executions.Load(); got != 0 {
			t.Fatalf("driver executed %d times, want 0", got)
		}
		if s := chain.hubs[0].Stats(); s.ForwardedInvokes != 0 {
			t.Fatalf("hub ForwardedInvokes = %d, want 0 (no via after a possible delivery)", s.ForwardedInvokes)
		}
	})
}

// answeredBefore gives r a latency history for each address, as if each
// had answered queries before, the first fastest: the addresses keep the
// given order of preference and have a usual round trip to be overdue
// against.
func answeredBefore(r *Relay, addrs ...string) {
	for i, addr := range addrs {
		r.health.reportSuccess(addr, time.Duration(i+1)*time.Millisecond)
	}
}

// TestFailoverRescuesStalledPrimary: the preferred address has answered
// before but is now hung (reachable, never replying). With a 200ms budget
// a query abandons it as overdue after half of the budget and is answered
// by the live standby within the budget; the abandoned attempt demotes the
// hung address, so the next query makes one attempt. An invoke is never
// cut short: against the same stall it spends the whole budget and fails
// rather than risk delivering twice.
func TestFailoverRescuesStalledPrimary(t *testing.T) {
	stalled := func() *Relay {
		hub := NewHub()
		reg := NewStaticRegistry()
		src, _ := newCaptureRelay(reg, hub)
		hub.Attach("stalled", src)
		hub.Attach("live", src)
		reg.Register("srcnet", "stalled", "live")
		dest := New("destnet", reg, hub)
		answeredBefore(dest, "stalled", "live")
		hub.SetStall("stalled", true)
		return dest
	}

	t.Run("query", func(t *testing.T) {
		dest := stalled()
		query := func() (*wire.QueryResponse, error) {
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			return dest.Query(ctx, captureQuery(t))
		}
		if resp, err := query(); err != nil || resp.Error != "" {
			t.Fatalf("query past the stalled primary: %s", respError(resp, err))
		}
		if s := dest.Stats(); s.FanoutAttempts != 2 {
			t.Fatalf("FanoutAttempts = %d, want 2", s.FanoutAttempts)
		}
		if resp, err := query(); err != nil || resp.Error != "" {
			t.Fatalf("second query: %s", respError(resp, err))
		}
		if s := dest.Stats(); s.FanoutAttempts != 3 {
			t.Fatalf("FanoutAttempts = %d after the second query, want 3 (the hung address not demoted)", s.FanoutAttempts)
		}
	})

	t.Run("invoke", func(t *testing.T) {
		dest := stalled()
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		if _, err := dest.Invoke(ctx, captureQuery(t)); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("invoke err = %v, want DeadlineExceeded (no failover past a possible delivery)", err)
		}
		if elapsed := time.Since(start); elapsed < 90*time.Millisecond {
			t.Fatalf("invoke gave up after %v of its 100ms budget; its budget was split", elapsed)
		}
		if s := dest.Stats(); s.FanoutAttempts != 1 {
			t.Fatalf("invoke FanoutAttempts = %d, want 1", s.FanoutAttempts)
		}
	})
}

// slowTransport holds every send for delay, or until the send's context
// ends, before passing it on: each address alive but slow.
type slowTransport struct {
	inner Transport
	delay time.Duration
}

func (t *slowTransport) Send(ctx context.Context, addr string, env *wire.Envelope) (*wire.Envelope, error) {
	select {
	case <-time.After(t.delay):
	case <-ctx.Done():
		return nil, fmt.Errorf("relay: send to %s: %w", addr, ctx.Err())
	}
	return t.inner.Send(ctx, addr, env)
}

// TestEquallySlowAddressesAreWaitedFor: three live addresses each take
// 40ms against a 100ms budget, more than an equal third of it. Every query
// is answered by the first address it tries, with no failover and no
// failure charged: first while no address has answered before, then once
// each has a history of answering that slowly, since being as slow as
// usual is not overdue.
func TestEquallySlowAddressesAreWaitedFor(t *testing.T) {
	hub := NewHub()
	reg := NewStaticRegistry()
	src, _ := newCaptureRelay(reg, hub)
	addrs := []string{"a", "b", "c"}
	for _, addr := range addrs {
		hub.Attach(addr, src)
	}
	reg.Register("srcnet", addrs...)
	dest := New("destnet", reg, &slowTransport{inner: hub, delay: 40 * time.Millisecond})

	for i := 1; i <= 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		resp, err := dest.Query(ctx, captureQuery(t))
		cancel()
		if err != nil || resp.Error != "" {
			t.Fatalf("query %d: %s", i, respError(resp, err))
		}
		if s := dest.Stats(); s.FanoutAttempts != uint64(i) {
			t.Fatalf("FanoutAttempts = %d after %d queries; a slow but live address was abandoned", s.FanoutAttempts, i)
		}
	}
	dest.health.mu.Lock()
	defer dest.health.mu.Unlock()
	for _, addr := range addrs {
		if st := dest.health.byAddr[addr]; st == nil || st.consecFailures != 0 || st.ewmaLatency == 0 {
			t.Fatalf("address %s health = %+v, want answered with no failure", addr, st)
		}
	}
}

// lateTransport answers sends to addr only after hold, ignoring the send's
// context, as a transport whose deadline timer fires late would.
type lateTransport struct {
	inner Transport
	addr  string
	hold  time.Duration
}

func (t *lateTransport) Send(ctx context.Context, addr string, env *wire.Envelope) (*wire.Envelope, error) {
	if addr == t.addr {
		time.Sleep(t.hold)
		return t.inner.Send(context.Background(), addr, env)
	}
	return t.inner.Send(ctx, addr, env)
}

// TestLateReplyToOverdueAttemptFailsOver: a reply that lands after its
// attempt was overdue is not taken, since over the wire it is most likely
// the remote's own deadline error; the query fails over and is answered
// within its budget. The late address answered, so it is charged no
// failure.
func TestLateReplyToOverdueAttemptFailsOver(t *testing.T) {
	hub := NewHub()
	reg := NewStaticRegistry()
	src, _ := newCaptureRelay(reg, hub)
	hub.Attach("late", src)
	hub.Attach("live", src)
	reg.Register("srcnet", "late", "live")
	dest := New("destnet", reg, &lateTransport{inner: hub, addr: "late", hold: 130 * time.Millisecond})
	answeredBefore(dest, "late", "live")

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if resp, err := dest.Query(ctx, captureQuery(t)); err != nil || resp.Error != "" {
		t.Fatalf("query: %s", respError(resp, err))
	}
	if s := dest.Stats(); s.FanoutAttempts != 2 {
		t.Fatalf("FanoutAttempts = %d, want 2 (the late reply taken)", s.FanoutAttempts)
	}
	dest.health.mu.Lock()
	defer dest.health.mu.Unlock()
	if st := dest.health.byAddr["late"]; st.consecFailures != 0 {
		t.Fatalf("late address charged %d failures", st.consecFailures)
	}
}
