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

// TestHedgingRescuesStalledPrimary shows what WithHedging buys: with the
// preferred address hung (reachable, never replying) and a 200ms budget,
// sequential failover spends the whole budget on it and fails, while a
// hedge opened after 20ms reaches the live standby.
func TestHedgingRescuesStalledPrimary(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   []Option
		wantOK bool
	}{
		{"sequential", nil, false},
		{"hedged", []Option{WithHedging(20*time.Millisecond, 2)}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hub := NewHub()
			reg := NewStaticRegistry()
			src, _ := newCaptureRelay(reg, hub)
			hub.Attach("stalled", src)
			hub.Attach("live", src)
			reg.Register("srcnet", "stalled", "live")
			hub.SetStall("stalled", true)

			dest := New("destnet", reg, hub, tc.opts...)
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			resp, err := dest.Query(ctx, captureQuery(t))
			if !tc.wantOK {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want DeadlineExceeded", err)
				}
				return
			}
			if err != nil || resp.Error != "" {
				t.Fatalf("hedged query: %s", respError(resp, err))
			}
			if s := dest.Stats(); s.HedgedWins != 1 {
				t.Fatalf("HedgedWins = %d, want 1", s.HedgedWins)
			}
		})
	}
}
