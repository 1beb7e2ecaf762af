package relay

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// RateLimiter implements the relay-side DoS protection §5 of the paper
// anticipates ("DoS protection can also be built into the relay service,
// protecting the peers themselves from such attacks"): a token bucket per
// requesting network bounds how fast any one network can drive queries into
// the local peers. Unknown requesters share the "" bucket.
type RateLimiter struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	now     func() time.Time
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter allows `rate` requests per second with the given burst per
// requesting network.
func NewRateLimiter(rate float64, burst int) *RateLimiter {
	if rate <= 0 {
		rate = 1
	}
	if burst < 1 {
		burst = 1
	}
	return &RateLimiter{
		rate:    rate,
		burst:   float64(burst),
		now:     time.Now,
		buckets: make(map[string]*bucket),
	}
}

// Allow reports whether a request from the given network may proceed,
// consuming a token if so.
func (l *RateLimiter) Allow(requestingNetwork string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, ok := l.buckets[requestingNetwork]
	if !ok {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[requestingNetwork] = b
	}
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens += elapsed * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// WithRateLimit installs a per-requesting-network rate limiter on the
// relay's server side. Requests over the limit receive an error envelope
// without ever reaching a driver or peer.
func WithRateLimit(l *RateLimiter) Option {
	return func(r *Relay) { r.limiter = l }
}

// Stats is a snapshot of the relay's served-request counters, the
// operational visibility a production relay deployment needs. A Stats
// value is always produced whole by statsCounters.Snapshot — the single
// consistent read point — never assembled field by field, so consumers
// (loadgen, operational tooling) can difference and merge snapshots
// without ever seeing a counter set that mixes two read moments.
type Stats struct {
	QueriesServed   uint64
	InvokesServed   uint64
	ErrorsReturned  uint64
	RateLimited     uint64
	EventsDelivered uint64
	// InvokeReplays counts invokes answered from the ledger's committed
	// record — duplicates of requests a sibling relay (or an earlier
	// incarnation of this one) already committed, whether caught by the
	// pre-execution lookup or by the driver after losing the commit race
	// (the latter also count as InvokesServed, since an execution was
	// attempted).
	InvokeReplays uint64

	// AttestationCacheHits counts queries whose proof was served from the
	// driver's content-addressed attestation cache — zero ECDSA signatures
	// and zero ECIES encryptions performed. AttestationCacheMisses counts
	// the queries that had to build a fresh proof. The two are mutually
	// exclusive per query.
	AttestationCacheHits   uint64
	AttestationCacheMisses uint64
	// AttestationCacheJoins is always zero. It counted queries rebuilt from
	// a cached requester-independent element record, a tier the cache no
	// longer has; the field stays because the bench module sums it with
	// hits and misses.
	AttestationCacheJoins uint64

	// Crypto-op accounting from the relay's registered drivers, so ECIES
	// and signature amortization (sessions, batching) is
	// observable in production: ECDH scalar multiplications performed,
	// ECDSA signatures produced, and envelopes sealed (sessioned AEAD
	// seals). Monotonic like every other counter, so Sub
	// over a window yields per-window op counts.
	ECDHOps    uint64
	SignOps    uint64
	EncryptOps uint64

	// Client-side fan-out accounting (destination relay role).
	FanoutAttempts uint64 // transport sends on the outbound path (origin requests and hub forwards)
	BreakerSkips   uint64 // circuit-open addresses demoted past healthy ones at resolve time

	// Multi-hop forwarding accounting (hub relay role): requests this
	// relay carried one hop closer to their target and answered with its
	// own hop pin appended. Refused forwards (cycle, TTL, no route) count
	// under ErrorsReturned only.
	ForwardedQueries uint64
	ForwardedInvokes uint64
}

// Sub returns the counter-wise difference s − prev: the activity between
// the two snapshots. Callers measuring a bounded window (a load-generation
// run, a monitoring interval) take a snapshot before and after and
// difference them, so traffic from setup or earlier windows never pollutes
// the measurement.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		QueriesServed:          s.QueriesServed - prev.QueriesServed,
		InvokesServed:          s.InvokesServed - prev.InvokesServed,
		ErrorsReturned:         s.ErrorsReturned - prev.ErrorsReturned,
		RateLimited:            s.RateLimited - prev.RateLimited,
		EventsDelivered:        s.EventsDelivered - prev.EventsDelivered,
		InvokeReplays:          s.InvokeReplays - prev.InvokeReplays,
		AttestationCacheHits:   s.AttestationCacheHits - prev.AttestationCacheHits,
		AttestationCacheMisses: s.AttestationCacheMisses - prev.AttestationCacheMisses,
		ECDHOps:                s.ECDHOps - prev.ECDHOps,
		SignOps:                s.SignOps - prev.SignOps,
		EncryptOps:             s.EncryptOps - prev.EncryptOps,
		FanoutAttempts:         s.FanoutAttempts - prev.FanoutAttempts,
		BreakerSkips:           s.BreakerSkips - prev.BreakerSkips,
		ForwardedQueries:       s.ForwardedQueries - prev.ForwardedQueries,
		ForwardedInvokes:       s.ForwardedInvokes - prev.ForwardedInvokes,
	}
}

// Merge returns the counter-wise sum of s and o — the fleet view when
// aggregating snapshots from several relays fronting one deployment.
func (s Stats) Merge(o Stats) Stats {
	return Stats{
		QueriesServed:          s.QueriesServed + o.QueriesServed,
		InvokesServed:          s.InvokesServed + o.InvokesServed,
		ErrorsReturned:         s.ErrorsReturned + o.ErrorsReturned,
		RateLimited:            s.RateLimited + o.RateLimited,
		EventsDelivered:        s.EventsDelivered + o.EventsDelivered,
		InvokeReplays:          s.InvokeReplays + o.InvokeReplays,
		AttestationCacheHits:   s.AttestationCacheHits + o.AttestationCacheHits,
		AttestationCacheMisses: s.AttestationCacheMisses + o.AttestationCacheMisses,
		ECDHOps:                s.ECDHOps + o.ECDHOps,
		SignOps:                s.SignOps + o.SignOps,
		EncryptOps:             s.EncryptOps + o.EncryptOps,
		FanoutAttempts:         s.FanoutAttempts + o.FanoutAttempts,
		BreakerSkips:           s.BreakerSkips + o.BreakerSkips,
		ForwardedQueries:       s.ForwardedQueries + o.ForwardedQueries,
		ForwardedInvokes:       s.ForwardedInvokes + o.ForwardedInvokes,
	}
}

// AttestationCacheHitRate returns hits/(hits+misses), or 0 before the
// first proof build.
func (s Stats) AttestationCacheHitRate() float64 {
	total := s.AttestationCacheHits + s.AttestationCacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.AttestationCacheHits) / float64(total)
}

// statsCounters is the relay's live counter set: one independent atomic
// per counter, so the hot paths (every served request bumps at least one)
// never contend on a shared lock, and a snapshot is one method rather than
// scattered field reads.
type statsCounters struct {
	queriesServed          atomic.Uint64
	invokesServed          atomic.Uint64
	errorsReturned         atomic.Uint64
	rateLimited            atomic.Uint64
	eventsDelivered        atomic.Uint64
	invokeReplays          atomic.Uint64
	attestationCacheHits   atomic.Uint64
	attestationCacheMisses atomic.Uint64
	fanoutAttempts         atomic.Uint64
	breakerSkips           atomic.Uint64
	forwardedQueries       atomic.Uint64
	forwardedInvokes       atomic.Uint64
}

// Snapshot copies every counter into an immutable Stats value — the single
// read point for the relay's counters.
func (c *statsCounters) Snapshot() Stats {
	return Stats{
		QueriesServed:          c.queriesServed.Load(),
		InvokesServed:          c.invokesServed.Load(),
		ErrorsReturned:         c.errorsReturned.Load(),
		RateLimited:            c.rateLimited.Load(),
		EventsDelivered:        c.eventsDelivered.Load(),
		InvokeReplays:          c.invokeReplays.Load(),
		AttestationCacheHits:   c.attestationCacheHits.Load(),
		AttestationCacheMisses: c.attestationCacheMisses.Load(),
		FanoutAttempts:         c.fanoutAttempts.Load(),
		BreakerSkips:           c.breakerSkips.Load(),
		ForwardedQueries:       c.forwardedQueries.Load(),
		ForwardedInvokes:       c.forwardedInvokes.Load(),
	}
}

// Stats returns a consistent snapshot of the relay's counters, with the
// crypto-op counters of every registered reporting driver summed in (each
// driver's counters flow to every relay it is registered on; a driver is
// registered on exactly one relay in all deployment shapes here).
func (r *Relay) Stats() Stats {
	s := r.stats.Snapshot()
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := make(map[CryptoOpsReporter]bool, len(r.drivers))
	for _, d := range r.drivers {
		rep, ok := d.(CryptoOpsReporter)
		if !ok || seen[rep] {
			continue
		}
		seen[rep] = true
		ecdh, sign, encrypt := rep.CryptoOps()
		s.ECDHOps += ecdh
		s.SignOps += sign
		s.EncryptOps += encrypt
	}
	return s
}

func (r *Relay) countQuery()                { r.stats.queriesServed.Add(1) }
func (r *Relay) countInvoke()               { r.stats.invokesServed.Add(1) }
func (r *Relay) countError()                { r.stats.errorsReturned.Add(1) }
func (r *Relay) countLimited()              { r.stats.rateLimited.Add(1) }
func (r *Relay) countEvent()                { r.stats.eventsDelivered.Add(1) }
func (r *Relay) countInvokeReplay()         { r.stats.invokeReplays.Add(1) }
func (r *Relay) countAttestationCacheHit()  { r.stats.attestationCacheHits.Add(1) }
func (r *Relay) countAttestationCacheMiss() { r.stats.attestationCacheMisses.Add(1) }
func (r *Relay) countFanoutAttempt()        { r.stats.fanoutAttempts.Add(1) }
func (r *Relay) countForwardedQuery()       { r.stats.forwardedQueries.Add(1) }
func (r *Relay) countForwardedInvoke()      { r.stats.forwardedInvokes.Add(1) }
func (r *Relay) countBreakerSkips(n int) {
	if n > 0 {
		r.stats.breakerSkips.Add(uint64(n))
	}
}

// checkLimit applies the rate limiter, if configured, to an incoming
// request attributed to requestingNetwork.
func (r *Relay) checkLimit(requestingNetwork string) error {
	if r.limiter == nil {
		return nil
	}
	if !r.limiter.Allow(requestingNetwork) {
		r.countLimited()
		return fmt.Errorf("relay: rate limit exceeded for network %q", requestingNetwork)
	}
	return nil
}
