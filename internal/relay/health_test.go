package relay

import (
	"context"
	"errors"
	"maps"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// fakeClock is a mutable time source for driving the health tracker's
// circuit-breaker cooldown deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestHealthOrderFailuresDemote: an address with transport failures sorts
// behind addresses without, regardless of registry preference order.
func TestHealthOrderFailuresDemote(t *testing.T) {
	h := newHealthTracker(time.Now, 3, time.Second)
	h.reportFailure("a")
	ordered, open := h.order([]string{"a", "b", "c"})
	if open != 0 {
		t.Fatalf("open = %d, want 0 (one failure does not open the breaker)", open)
	}
	if ordered[0] != "b" || ordered[1] != "c" || ordered[2] != "a" {
		t.Fatalf("order = %v, want failing address demoted to last", ordered)
	}

	// A success resets the streak and restores registry preference order.
	h.reportSuccess("a", time.Millisecond)
	h.reportSuccess("b", time.Millisecond)
	h.reportSuccess("c", time.Millisecond)
	ordered, _ = h.order([]string{"a", "b", "c"})
	if ordered[0] != "a" {
		t.Fatalf("order after recovery = %v, want registry order restored", ordered)
	}
}

// TestHealthOrderByEWMALatency: among addresses without failures, the
// faster EWMA round-trip sorts first.
func TestHealthOrderByEWMALatency(t *testing.T) {
	h := newHealthTracker(time.Now, 3, time.Second)
	h.reportSuccess("slow", 50*time.Millisecond)
	h.reportSuccess("fast", time.Millisecond)
	ordered, _ := h.order([]string{"slow", "fast"})
	if ordered[0] != "fast" {
		t.Fatalf("order = %v, want fast first", ordered)
	}

	// A sustained latency shift moves the estimate: the former-fast address
	// degrades past the slow one within a few samples.
	for i := 0; i < 10; i++ {
		h.reportSuccess("fast", 200*time.Millisecond)
	}
	ordered, _ = h.order([]string{"slow", "fast"})
	if ordered[0] != "slow" {
		t.Fatalf("order after degradation = %v, want slow first", ordered)
	}
}

// TestCircuitBreakerOpensAndCoolsDown: threshold consecutive failures open
// the breaker (address demoted and counted open); the cooldown elapsing
// makes it eligible again; a success closes it fully.
func TestCircuitBreakerOpensAndCoolsDown(t *testing.T) {
	clk := newFakeClock()
	h := newHealthTracker(clk.Now, 3, 10*time.Second)
	for i := 0; i < 2; i++ {
		h.reportFailure("a")
	}
	if h.circuitOpen("a") {
		t.Fatal("breaker open below the failure threshold")
	}
	h.reportFailure("a")
	if !h.circuitOpen("a") {
		t.Fatal("breaker not open after threshold failures")
	}
	if _, open := h.order([]string{"a", "b"}); open != 1 {
		t.Fatalf("open = %d, want 1", open)
	}

	clk.Advance(11 * time.Second)
	if h.circuitOpen("a") {
		t.Fatal("breaker still open after the cooldown elapsed")
	}
	// Half-open: eligible again but still last by failure score, and a
	// single further failure re-opens immediately.
	ordered, open := h.order([]string{"a", "b"})
	if open != 0 || ordered[0] != "b" || ordered[1] != "a" {
		t.Fatalf("half-open order = %v (open %d), want a eligible but last", ordered, open)
	}
	h.reportFailure("a")
	if !h.circuitOpen("a") {
		t.Fatal("half-open breaker did not re-open on the next failure")
	}

	clk.Advance(11 * time.Second)
	h.reportSuccess("a", time.Millisecond)
	if h.circuitOpen("a") {
		t.Fatal("breaker open after a success")
	}
	if st := func() int { h.mu.Lock(); defer h.mu.Unlock(); return h.byAddr["a"].consecFailures }(); st != 0 {
		t.Fatalf("consecutive failures after success = %d, want 0", st)
	}
}

// TestHealthOrderAllOpenKeepsAll: when every breaker is open there is
// nothing healthier to prefer — all addresses stay eligible (open count 0)
// so fan-out still probes them rather than failing by policy.
func TestHealthOrderAllOpenKeepsAll(t *testing.T) {
	h := newHealthTracker(time.Now, 1, time.Minute)
	h.reportFailure("a")
	h.reportFailure("b")
	ordered, open := h.order([]string{"a", "b"})
	if open != 0 {
		t.Fatalf("open = %d, want 0 when every breaker is open", open)
	}
	if len(ordered) != 2 {
		t.Fatalf("order = %v, want both addresses kept", ordered)
	}
}

// TestFailoverStopsAttemptingDeadAddress: after the first failed attempt
// the dead primary is demoted, so subsequent sequential queries go straight
// to the live standby — one transport attempt each instead of seed
// behavior's two (dead primary retried on every query).
func TestFailoverStopsAttemptingDeadAddress(t *testing.T) {
	hub := NewHub()
	reg := NewStaticRegistry()
	src, _ := newCaptureRelay(reg, hub)
	hub.Attach("dead", src)
	hub.Attach("live", src)
	reg.Register("srcnet", "dead", "live")
	hub.SetDown("dead", true)

	dest := New("destnet", reg, hub)
	const queries = 10
	for i := 0; i < queries; i++ {
		resp, err := dest.Query(context.Background(), captureQuery(t))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if resp.Error != "" {
			t.Fatalf("query %d remote error: %s", i, resp.Error)
		}
	}
	attempts := dest.Stats().FanoutAttempts
	// Seed behavior: 2 attempts per query (dead primary first, every time).
	if attempts >= 2*queries {
		t.Fatalf("FanoutAttempts = %d, want fewer than the %d of always-retry-the-dead-primary", attempts, 2*queries)
	}
	// Health ordering: the dead address is attempted once, then demoted.
	if attempts != queries+1 {
		t.Fatalf("FanoutAttempts = %d, want %d (one wasted attempt total)", attempts, queries+1)
	}
}

// TestBreakerSkipsCountedAfterProbes: failed pings open the dead address's
// breaker (default policy: three failures); subsequent resolves demote it
// and account the skip in stats.
func TestBreakerSkipsCountedAfterProbes(t *testing.T) {
	clk := newFakeClock()
	hub := NewHub()
	reg := NewStaticRegistry()
	src, _ := newCaptureRelay(reg, hub)
	hub.Attach("dead", src)
	hub.Attach("live", src)
	reg.Register("srcnet", "dead", "live")
	hub.SetDown("dead", true)

	dest := New("destnet", reg, hub, WithClock(clk.Now))
	for i := 0; i < 3; i++ {
		if err := dest.Ping(context.Background(), "dead"); err == nil {
			t.Fatal("ping against a down address succeeded")
		}
	}
	if !dest.health.circuitOpen("dead") {
		t.Fatal("breaker not open after three failed pings")
	}
	for i := 0; i < 5; i++ {
		if _, err := dest.Query(context.Background(), captureQuery(t)); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	stats := dest.Stats()
	if stats.BreakerSkips != 5 {
		t.Fatalf("BreakerSkips = %d, want 5 (one demotion per resolve)", stats.BreakerSkips)
	}
	if stats.FanoutAttempts != 5 {
		t.Fatalf("FanoutAttempts = %d, want 5 (dead address never attempted)", stats.FanoutAttempts)
	}
}

// TestBreakerCooldownRestoresRecoveredAddress: a dead-then-revived relay is
// probed again once the default 10s cooldown elapses and earns back its
// standing with one success.
func TestBreakerCooldownRestoresRecoveredAddress(t *testing.T) {
	clk := newFakeClock()
	hub := NewHub()
	reg := NewStaticRegistry()
	src, _ := newCaptureRelay(reg, hub)
	hub.Attach("flappy", src)
	reg.Register("srcnet", "flappy")
	hub.SetDown("flappy", true)

	dest := New("destnet", reg, hub, WithClock(clk.Now))
	for i := 0; i < defaultBreakerThreshold; i++ {
		if _, err := dest.Query(context.Background(), captureQuery(t)); !errors.Is(err, ErrAllRelaysFailed) {
			t.Fatalf("query %d err = %v, want ErrAllRelaysFailed", i, err)
		}
	}
	if !dest.health.circuitOpen("flappy") {
		t.Fatal("breaker not open")
	}
	// Single address: the open breaker cannot demote it below anything, so
	// queries still probe it (availability over purity) and keep failing.
	if _, err := dest.Query(context.Background(), captureQuery(t)); !errors.Is(err, ErrAllRelaysFailed) {
		t.Fatalf("err = %v, want ErrAllRelaysFailed", err)
	}

	hub.SetDown("flappy", false)
	clk.Advance(defaultBreakerCooldown + time.Second)
	resp, err := dest.Query(context.Background(), captureQuery(t))
	if err != nil || resp.Error != "" {
		t.Fatalf("query after recovery: %v %v", err, resp)
	}
	if dest.health.circuitOpen("flappy") {
		t.Fatal("breaker still open after a successful round-trip")
	}
}

// TestCancelledQueryNotChargedAFailure: a caller that abandons a query
// stalled on an address must not charge that address a failure —
// cancellation says nothing about the address's health.
func TestCancelledQueryNotChargedAFailure(t *testing.T) {
	hub := NewHub()
	reg := NewStaticRegistry()
	src, _ := newCaptureRelay(reg, hub)
	hub.Attach("stalled", src)
	hub.Attach("healthy", src)
	reg.Register("srcnet", "stalled", "healthy")
	hub.SetStall("stalled", true)

	dest := New("destnet", reg, hub)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := dest.Query(ctx, captureQuery(t))
		done <- err
	}()
	// Cancel only once the query is at the stall, so the cancellation
	// reaches observeSend rather than the fan-out loop's own check.
	for dest.Stats().FanoutAttempts == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	dest.health.mu.Lock()
	st := dest.health.byAddr["stalled"]
	dest.health.mu.Unlock()
	if st != nil && st.consecFailures != 0 {
		t.Fatalf("cancelled query charged the stalled address %d failures", st.consecFailures)
	}
}

// clockedTransport advances a fake clock by a per-address delay on every
// send, so the round trips a relay measures on that clock are exact.
type clockedTransport struct {
	Transport
	clk   *fakeClock
	mu    sync.Mutex
	delay map[string]time.Duration
	sends map[string]int
}

func (t *clockedTransport) Send(ctx context.Context, addr string, env *wire.Envelope) (*wire.Envelope, error) {
	t.mu.Lock()
	d := t.delay[addr]
	t.sends[addr]++
	t.mu.Unlock()
	t.clk.Advance(d)
	return t.Transport.Send(ctx, addr, env)
}

func (t *clockedTransport) set(addr string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.delay[addr] = d
}

// first returns the address the next query tries first.
func (t *clockedTransport) first(tb *testing.T, dest *Relay) string {
	tb.Helper()
	t.mu.Lock()
	before := maps.Clone(t.sends)
	t.mu.Unlock()
	if _, err := dest.Query(context.Background(), captureQuery(tb)); err != nil {
		tb.Fatalf("query: %v", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for addr, n := range t.sends {
		if n > before[addr] {
			return addr
		}
	}
	tb.Fatal("query sent nothing")
	return ""
}

// TestStaleAddressIsResampled: one slow sample on the fast address ranks
// it behind the slow one, which then takes every query and stays freshly
// sampled. Once the fast address's last sample is older than the breaker
// cooldown it ranks as never observed, is tried again, and with a fast
// answer regains first place.
func TestStaleAddressIsResampled(t *testing.T) {
	clk := newFakeClock()
	hub := NewHub()
	reg := NewStaticRegistry()
	src, _ := newCaptureRelay(reg, hub)
	hub.Attach("fast", src)
	hub.Attach("slow", src)
	reg.Register("srcnet", "fast", "slow")
	tr := &clockedTransport{Transport: hub, clk: clk,
		delay: map[string]time.Duration{"fast": time.Millisecond, "slow": 10 * time.Millisecond},
		sends: map[string]int{}}
	dest := New("destnet", reg, tr, WithClock(clk.Now))
	dest.health.reportSuccess("slow", 10*time.Millisecond)

	if got := tr.first(t, dest); got != "fast" {
		t.Fatalf("first query went to %s, want fast", got)
	}
	tr.set("fast", 50*time.Millisecond)
	tr.first(t, dest) // the one slow sample: EWMA 0.3·50 + 0.7·1 ms > 10 ms
	tr.set("fast", time.Millisecond)
	half := defaultBreakerCooldown/2 + time.Second
	clk.Advance(half)
	if got := tr.first(t, dest); got != "slow" {
		t.Fatalf("query after the slow sample went to %s, want slow", got)
	}
	clk.Advance(half) // fast's last sample is now past the cooldown, slow's is not
	if got := tr.first(t, dest); got != "fast" {
		t.Fatalf("fast unsampled for %v was not tried again (got %s)", 2*half, got)
	}
	if got := tr.first(t, dest); got != "fast" {
		t.Fatalf("fast answered in 1ms but %s ranks first", got)
	}
}

// TestFailingAddressStaysBehindLiveOne: an address whose last samples were
// failures keeps its failure penalty however long ago they were, so it
// ranks behind a live address whether its breaker has cooled or never
// opened, and whether the live address's own history is fresh or stale.
func TestFailingAddressStaysBehindLiveOne(t *testing.T) {
	for _, failures := range []int{1, 2, 3} {
		clk := newFakeClock()
		h := newHealthTracker(clk.Now, defaultBreakerThreshold, defaultBreakerCooldown)
		h.reportSuccess("live", 5*time.Millisecond)
		for range failures {
			h.reportFailure("hung") // never answered: no EWMA, so never overdue
		}
		clk.Advance(defaultBreakerCooldown + time.Second)
		for _, fresh := range []bool{false, true} {
			if fresh {
				h.reportSuccess("live", 5*time.Millisecond)
			}
			if ordered, _ := h.order([]string{"hung", "live"}); ordered[0] != "live" {
				t.Fatalf("%d failures, cooled down (live sampled again: %v): order %v, want live first", failures, fresh, ordered)
			}
		}
	}
}
