package relay

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// captureDriver records the serving context's deadline for each query and
// answers immediately.
type captureDriver struct {
	deadlines chan time.Time
}

func (d *captureDriver) Platform() string { return "test" }

func (d *captureDriver) ServeQuery(ctx context.Context, q *wire.Query) ([]byte, error) {
	deadline, _ := ctx.Deadline()
	select {
	case d.deadlines <- deadline:
	default:
	}
	return (&wire.QueryResponse{}).Marshal(), nil // ServeQuery leaves the ID to the relay
}

// newCaptureRelay builds a relay serving network "srcnet" through a
// captureDriver.
func newCaptureRelay(discovery Discovery, transport Transport, opts ...Option) (*Relay, *captureDriver) {
	d := &captureDriver{deadlines: make(chan time.Time, 1)}
	r := New("srcnet", discovery, transport, opts...)
	r.RegisterDriver("srcnet", d)
	return r, d
}

func captureQuery(t *testing.T) *wire.Query {
	t.Helper()
	return &wire.Query{TargetNetwork: "srcnet", Contract: "cc", Function: "fn"}
}

// TestQueryDoesNotMutateCallerQuery: the relay operates on a copy; the
// assigned request ID comes back in the response instead of being written
// into the caller's struct.
func TestQueryDoesNotMutateCallerQuery(t *testing.T) {
	hub := NewHub()
	reg := NewStaticRegistry()
	src, _ := newCaptureRelay(reg, hub)
	hub.Attach("src-relay", src)
	reg.Register("srcnet", "src-relay")

	dest := New("destnet", reg, hub)
	q := captureQuery(t)
	resp, err := dest.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if q.RequestID != "" {
		t.Fatalf("caller's RequestID mutated to %q", q.RequestID)
	}
	if q.RequestingNetwork != "" {
		t.Fatalf("caller's RequestingNetwork mutated to %q", q.RequestingNetwork)
	}
	if resp.RequestID == "" {
		t.Fatal("assigned request ID not returned in the response")
	}
}

// TestQueryDeadlineAgainstStalledTransport: a hung relay (reachable but
// never replying) cannot block a query past its deadline.
func TestQueryDeadlineAgainstStalledTransport(t *testing.T) {
	hub := NewHub()
	reg := NewStaticRegistry()
	src, _ := newCaptureRelay(reg, hub)
	hub.Attach("src-relay", src)
	reg.Register("srcnet", "src-relay")
	hub.SetStall("src-relay", true)

	dest := New("destnet", reg, hub)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := dest.Query(ctx, captureQuery(t))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("query blocked %v past its 100ms deadline", elapsed)
	}
}

// TestQueryCancellationMidFlight: cancelling the context releases a query
// blocked on a hung transport immediately.
func TestQueryCancellationMidFlight(t *testing.T) {
	hub := NewHub()
	reg := NewStaticRegistry()
	src, _ := newCaptureRelay(reg, hub)
	hub.Attach("src-relay", src)
	reg.Register("srcnet", "src-relay")
	hub.SetStall("src-relay", true)

	dest := New("destnet", reg, hub)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := dest.Query(ctx, captureQuery(t))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the query reach the stall
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled query never returned")
	}
}

// TestDeadlinePropagatesAcrossWire: the requester's deadline travels in the
// envelope over real TCP and the source relay serves the query under a
// context carrying (at least) that deadline. Since the budget travels
// relative and counts from arrival, the observed deadline may trail the
// requester's by the one-way transit time, never by more.
func TestDeadlinePropagatesAcrossWire(t *testing.T) {
	reg := NewStaticRegistry()
	transport := &TCPTransport{DialTimeout: 2 * time.Second, IOTimeout: 10 * time.Second}
	src, drv := newCaptureRelay(reg, transport)
	server, err := NewTCPServer(src, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPServer: %v", err)
	}
	defer server.Close()
	reg.Register("srcnet", server.Addr())

	dest := New("destnet", reg, transport)
	deadline := time.Now().Add(3 * time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	if _, err := dest.Query(ctx, captureQuery(t)); err != nil {
		t.Fatalf("Query: %v", err)
	}
	select {
	case got := <-drv.deadlines:
		if got.IsZero() {
			t.Fatal("source relay served the query with no deadline")
		}
		if got.Before(deadline) {
			t.Fatalf("source deadline = %v, earlier than the requester's %v", got, deadline)
		}
		if got.Sub(deadline) > 2*time.Second {
			t.Fatalf("source deadline = %v, inflated %v past the requester's", got, got.Sub(deadline))
		}
	case <-time.After(time.Second):
		t.Fatal("driver never observed the query")
	}
}

// deadlineRespectingDriver declines to serve once the serving context is
// dead — the behaviour any real driver (and the FabricDriver) has, which
// the skew test depends on.
type deadlineRespectingDriver struct {
	deadlines chan time.Time
}

func (d *deadlineRespectingDriver) Platform() string { return "test" }

func (d *deadlineRespectingDriver) ServeQuery(ctx context.Context, q *wire.Query) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	deadline, _ := ctx.Deadline()
	select {
	case d.deadlines <- deadline:
	default:
	}
	return (&wire.QueryResponse{}).Marshal(), nil // ServeQuery leaves the ID to the relay
}

// TestSkewedClockDoesNotKillRequestOnArrival: a source relay whose clock
// runs an hour fast serves a request under the relative budget it was
// stamped with, counted from arrival: the clock it reads plays no part.
func TestSkewedClockDoesNotKillRequestOnArrival(t *testing.T) {
	reg := NewStaticRegistry()
	fastClock := func() time.Time { return time.Now().Add(time.Hour) }
	drv := &deadlineRespectingDriver{deadlines: make(chan time.Time, 1)}
	src := New("srcnet", reg, NewHub(), WithClock(fastClock))
	src.RegisterDriver("srcnet", drv)

	q := captureQuery(t)
	q.RequestID = "skew-1"
	reply := src.HandleEnvelope(context.Background(), &wire.Envelope{
		Version:      wire.ProtocolVersion,
		Type:         wire.MsgQuery,
		RequestID:    q.RequestID,
		Payload:      q.Marshal(),
		TimeoutNanos: uint64(30 * time.Second),
	})
	resp, err := wire.UnmarshalQueryResponse(reply.Payload)
	if err != nil {
		t.Fatalf("unmarshal reply: %v", err)
	}
	if resp.Error != "" {
		t.Fatalf("an hour of clock skew killed the query: %s", resp.Error)
	}
	select {
	case got := <-drv.deadlines:
		if remaining := time.Until(got); remaining <= 0 || remaining > 35*time.Second {
			t.Fatalf("served budget = %v, want ~30s", remaining)
		}
	case <-time.After(time.Second):
		t.Fatal("driver never observed the query")
	}
}

// TestLegSpentBudgetIsNeverUnbounded: zero TimeoutNanos means unbounded,
// so a context already past its deadline when an envelope is stamped
// stamps 1 ns, never 0; and an envelope whose budget is spent on arrival
// is refused with a deadline error before any driver sees it.
func TestLegSpentBudgetIsNeverUnbounded(t *testing.T) {
	for _, past := range []time.Duration{0, time.Nanosecond, time.Second, time.Hour} {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-past))
		env := &wire.Envelope{TimeoutNanos: 42}
		stampDeadline(ctx, env)
		cancel()
		if env.TimeoutNanos != 1 {
			t.Fatalf("deadline %v past: stamped TimeoutNanos = %d, want 1", past, env.TimeoutNanos)
		}
	}
	env := &wire.Envelope{TimeoutNanos: 42}
	stampDeadline(context.Background(), env)
	if env.TimeoutNanos != 0 {
		t.Fatalf("unbounded context stamped TimeoutNanos = %d, want 0", env.TimeoutNanos)
	}

	reg := NewStaticRegistry()
	src, drv := newCaptureRelay(reg, NewHub())
	txd := &countingTxDriver{}
	src.RegisterDriver("txnet", txd)
	for _, c := range []struct {
		typ    wire.MsgType
		target string
	}{{wire.MsgQuery, "srcnet"}, {wire.MsgInvoke, "txnet"}} {
		q := &wire.Query{TargetNetwork: c.target, Contract: "cc", Function: "fn", RequestID: "spent-" + c.target}
		reply := src.HandleEnvelope(context.Background(), &wire.Envelope{
			Version: wire.ProtocolVersion, Type: c.typ, RequestID: q.RequestID, Payload: q.Marshal(), TimeoutNanos: 1,
		})
		if reply.Type != wire.MsgError || !strings.Contains(string(reply.Payload), context.DeadlineExceeded.Error()) {
			t.Fatalf("%s with a 1 ns budget: reply %s %q, want a deadline error", c.typ, reply.Type, reply.Payload)
		}
	}
	if len(drv.deadlines) != 0 {
		t.Fatal("a query with a spent budget reached the driver")
	}
	txd.mu.Lock()
	defer txd.mu.Unlock()
	if txd.count != 0 {
		t.Fatalf("an invoke with a spent budget executed %d times", txd.count)
	}
}

// stampRecordingTransport records each send's stamped TimeoutNanos and
// fails every address except the last.
type stampRecordingTransport struct {
	inner Transport
	mu    sync.Mutex
	burn  time.Duration
	seen  []uint64
	last  string
}

func (t *stampRecordingTransport) Send(ctx context.Context, addr string, env *wire.Envelope) (*wire.Envelope, error) {
	t.mu.Lock()
	t.seen = append(t.seen, env.TimeoutNanos)
	t.mu.Unlock()
	if addr != t.last {
		time.Sleep(t.burn) // a slow failure consuming the shared budget
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, addr)
	}
	return t.inner.Send(ctx, addr, env)
}

// TestFailoverRestampsRelativeBudget: the relative budget decays as fan-out
// burns time, so the envelope resent to the next address must carry the
// budget remaining at that attempt, not the budget at first stamp —
// otherwise the receiver would serve past the requester's true deadline.
func TestFailoverRestampsRelativeBudget(t *testing.T) {
	hub := NewHub()
	reg := NewStaticRegistry()
	src, _ := newCaptureRelay(reg, hub)
	hub.Attach("slow-fail", src)
	hub.Attach("ok", src)
	reg.Register("srcnet", "slow-fail", "ok")

	transport := &stampRecordingTransport{inner: hub, burn: 60 * time.Millisecond, last: "ok"}
	dest := New("destnet", reg, transport)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := dest.Query(ctx, captureQuery(t)); err != nil {
		t.Fatalf("Query: %v", err)
	}
	transport.mu.Lock()
	defer transport.mu.Unlock()
	if len(transport.seen) != 2 {
		t.Fatalf("sends = %d, want 2", len(transport.seen))
	}
	first, second := transport.seen[0], transport.seen[1]
	if first == 0 || second == 0 {
		t.Fatalf("TimeoutNanos not stamped: %d, %d", first, second)
	}
	if second >= first {
		t.Fatalf("failover resend budget %d >= first attempt's %d; stale relative budget was resent", second, first)
	}
	if decayed := time.Duration(first - second); decayed < 50*time.Millisecond {
		t.Fatalf("failover resend budget decayed by only %v, want >= the 60ms the failed attempt burned", decayed)
	}
}

// TestTCPSendDeadlineAgainstHungServer: a TCP peer that accepts the
// connection but never replies cannot hold Send past the context deadline.
func TestTCPSendDeadlineAgainstHungServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold the connection open, never reply
		}
	}()

	transport := &TCPTransport{DialTimeout: 2 * time.Second, IOTimeout: 30 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = transport.Send(ctx, ln.Addr().String(), &wire.Envelope{Version: 1, Type: wire.MsgPing, RequestID: "p"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Send blocked %v past its deadline", elapsed)
	}
}

// TestTCPSendCancellationUnblocksRead: cancelling mid-read interrupts a
// blocked TCP round-trip immediately, without waiting for IOTimeout.
func TestTCPSendCancellationUnblocksRead(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 4096)
		_, _ = conn.Read(buf) // consume the request, never answer
		time.Sleep(5 * time.Second)
	}()

	transport := &TCPTransport{DialTimeout: 2 * time.Second, IOTimeout: 30 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := transport.Send(ctx, ln.Addr().String(), &wire.Envelope{Version: 1, Type: wire.MsgPing, RequestID: "p"})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled Send never returned")
	}
}

// countingTxDriver counts executions against its fake ledger, for invoke
// idempotency tests.
type countingTxDriver struct {
	fakeLedger
	mu    sync.Mutex
	count int
}

func (d *countingTxDriver) Platform() string { return "test" }

func (d *countingTxDriver) ServeQuery(ctx context.Context, q *wire.Query) ([]byte, error) {
	return (&wire.QueryResponse{}).Marshal(), nil // ServeQuery leaves the ID to the relay
}

func (d *countingTxDriver) Invoke(ctx context.Context, q *wire.Query) (*wire.QueryResponse, error) {
	d.mu.Lock()
	d.count++
	d.mu.Unlock()
	resp := &wire.QueryResponse{RequestID: q.RequestID, EncryptedResult: []byte("committed")}
	d.commit(q, resp)
	return resp, nil
}

// TestInvokeResendDeduplicated: a transport-level resend of the same invoke
// request ID (failover after delivery, stale-connection retry) replays the
// committed response instead of executing the transaction twice.
func TestInvokeResendDeduplicated(t *testing.T) {
	reg := NewStaticRegistry()
	d := &countingTxDriver{}
	src := New("srcnet", reg, NewHub())
	src.RegisterDriver("srcnet", d)

	q := &wire.Query{TargetNetwork: "srcnet", Contract: "cc", Function: "fn", RequestID: "inv-1"}
	env := &wire.Envelope{
		Version:   wire.ProtocolVersion,
		Type:      wire.MsgInvoke,
		RequestID: "inv-1",
		Payload:   q.Marshal(),
	}
	first := src.HandleEnvelope(context.Background(), env)
	if first.Type != wire.MsgQueryResponse {
		t.Fatalf("first reply type = %v", first.Type)
	}
	second := src.HandleEnvelope(context.Background(), env)
	if second.Type != wire.MsgQueryResponse {
		t.Fatalf("resend reply type = %v", second.Type)
	}
	if !bytes.Equal(first.Payload, second.Payload) {
		t.Fatal("resend returned a different response than the original")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.count != 1 {
		t.Fatalf("transaction executed %d times, want 1", d.count)
	}
}

// TestInvokeFailsOverOnlyWhenUnreachable: invoke failover moves past an
// address whose connection was never established (safe — nothing was
// delivered), which is the only resend the at-most-once contract allows.
func TestInvokeFailsOverOnlyWhenUnreachable(t *testing.T) {
	hub := NewHub()
	reg := NewStaticRegistry()
	d := &countingTxDriver{}
	src := New("srcnet", reg, hub)
	src.RegisterDriver("srcnet", d)
	hub.Attach("down", src)
	hub.Attach("up", src)
	reg.Register("srcnet", "down", "up")
	hub.SetDown("down", true) // unreachable: connection refused, nothing delivered

	dest := New("destnet", reg, hub)
	resp, err := dest.Invoke(context.Background(), captureQuery(t))
	if err != nil {
		t.Fatalf("Invoke with unreachable primary: %v", err)
	}
	if resp.Error != "" {
		t.Fatalf("remote error: %s", resp.Error)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.count != 1 {
		t.Fatalf("transaction executed %d times, want 1", d.count)
	}
}

// TestSubscribeResendIdempotent: a duplicate subscribe envelope (same
// subscription ID) does not register a second source-side subscription.
type countingEventSource struct {
	countingTxDriver
	subs int
}

func (d *countingEventSource) SubscribeEvents(ctx context.Context, eventName string, deliver func([]byte, string, uint64)) (func(), error) {
	d.mu.Lock()
	d.subs++
	d.mu.Unlock()
	return func() {}, nil
}

func TestSubscribeResendIdempotent(t *testing.T) {
	reg := NewStaticRegistry()
	d := &countingEventSource{}
	src := New("srcnet", reg, NewHub())
	src.RegisterDriver("srcnet", d)

	sub := &wire.Subscription{
		SubscriptionID: "sub-1", RequestingNetwork: "destnet",
		TargetNetwork: "srcnet", EventName: "ev",
	}
	env := &wire.Envelope{
		Version: wire.ProtocolVersion, Type: wire.MsgSubscribe,
		RequestID: "sub-1", Payload: sub.Marshal(),
	}
	for i := 0; i < 3; i++ {
		if reply := src.HandleEnvelope(context.Background(), env); reply.Type != wire.MsgQueryResponse {
			t.Fatalf("reply %d type = %v", i, reply.Type)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.subs != 1 {
		t.Fatalf("driver subscriptions = %d, want 1", d.subs)
	}
}

// slowTxDriver blocks each Invoke until released, to model a commit that
// outlives a transport timeout.
type slowTxDriver struct {
	countingTxDriver
	release chan struct{}
}

func (d *slowTxDriver) Invoke(ctx context.Context, q *wire.Query) (*wire.QueryResponse, error) {
	<-d.release
	return d.countingTxDriver.Invoke(ctx, q)
}

// TestInvokeDuplicateWaitsForInflight: a duplicate arriving while the
// original invoke is still executing waits for it and replays the single
// committed outcome — the transaction never runs twice.
func TestInvokeDuplicateWaitsForInflight(t *testing.T) {
	reg := NewStaticRegistry()
	d := &slowTxDriver{release: make(chan struct{})}
	src := New("srcnet", reg, NewHub())
	src.RegisterDriver("srcnet", d)

	q := &wire.Query{TargetNetwork: "srcnet", Contract: "cc", Function: "fn", RequestID: "inv-slow"}
	env := &wire.Envelope{
		Version: wire.ProtocolVersion, Type: wire.MsgInvoke,
		RequestID: "inv-slow", Payload: q.Marshal(),
	}
	replies := make(chan *wire.Envelope, 2)
	for i := 0; i < 2; i++ {
		go func() { replies <- src.HandleEnvelope(context.Background(), env) }()
	}
	time.Sleep(20 * time.Millisecond) // both attempts in flight
	close(d.release)
	for i := 0; i < 2; i++ {
		select {
		case reply := <-replies:
			if reply.Type != wire.MsgQueryResponse {
				t.Fatalf("reply %d: %s: %s", i, reply.Type, reply.Payload)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("duplicate invoke never returned")
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.count != 1 {
		t.Fatalf("transaction executed %d times, want 1", d.count)
	}
}
