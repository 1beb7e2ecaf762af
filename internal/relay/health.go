package relay

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/wire"
)

// Default circuit-breaker policy. Three consecutive transport failures mark
// an address suspect enough to stop preferring it; the cooldown is long
// relative to a round-trip but short enough that a relay restart is noticed
// promptly.
const (
	defaultBreakerThreshold = 3
	defaultBreakerCooldown  = 10 * time.Second
)

// ewmaAlpha is the smoothing factor for the per-address latency estimate:
// each new sample contributes 30%, so the estimate follows sustained shifts
// within a few round-trips without whipsawing on one outlier.
const ewmaAlpha = 0.3

// failurePenaltyNanos is the health-score cost of one consecutive transport
// failure. It is deliberately enormous compared to any plausible EWMA
// latency so that failure count strictly dominates the ordering and latency
// only breaks ties among addresses in the same failure class.
const failurePenaltyNanos = float64(30 * time.Second)

// addrHealth is the tracked state of one relay address.
type addrHealth struct {
	// consecFailures counts transport failures since the last success.
	consecFailures int
	// ewmaLatency is the exponentially weighted moving average round-trip
	// latency in nanoseconds, zero until the first success.
	ewmaLatency float64
	// openUntil is the circuit-breaker cooldown expiry: while it is in the
	// future the address is demoted to last resort. Zero when closed.
	openUntil time.Time
	// sampledAt is when the address last answered or failed. A history
	// older than the breaker cooldown is stale (see stale).
	sampledAt time.Time
}

// stale reports whether the address has gone unsampled for longer than
// the breaker cooldown. order ranks a stale address without failures as
// never observed, so one that lost first place to a slow sample is tried
// again, and the next sample restarts its EWMA instead of folding into
// the old one.
func (st *addrHealth) stale(now time.Time) bool {
	return now.Sub(st.sampledAt) > defaultBreakerCooldown
}

// healthTracker scores relay addresses from observed transport outcomes —
// the discovery layer's memory of which relays are alive and fast. Every
// send on the outbound path (sendLeg), Ping and event push
// feeds it; Resolve results are reordered through it so fan-out tries
// live, fast relays first (the paper's §5 relay-redundancy mitigation made
// load-bearing: redundancy only helps if dead relays stop being preferred).
type healthTracker struct {
	mu        sync.Mutex
	now       func() time.Time
	threshold int           // consecutive failures that open the breaker
	cooldown  time.Duration // how long an open breaker demotes the address
	byAddr    map[string]*addrHealth
}

func newHealthTracker(now func() time.Time, threshold int, cooldown time.Duration) *healthTracker {
	return &healthTracker{
		now:       now,
		threshold: threshold,
		cooldown:  cooldown,
		byAddr:    make(map[string]*addrHealth),
	}
}

// reportSuccess records a completed round-trip: the failure streak resets,
// the breaker closes, and the latency sample folds into the EWMA.
func (h *healthTracker) reportSuccess(addr string, rtt time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.stateLocked(addr)
	now := h.now()
	stale := st.stale(now)
	st.consecFailures = 0
	st.openUntil = time.Time{}
	st.sampledAt = now
	sample := float64(rtt)
	if sample < 0 {
		sample = 0
	}
	if st.ewmaLatency == 0 || stale {
		st.ewmaLatency = sample
	} else {
		st.ewmaLatency = ewmaAlpha*sample + (1-ewmaAlpha)*st.ewmaLatency
	}
}

// reportFailure records a transport failure. Crossing the threshold opens
// the circuit breaker for the cooldown; further failures while open (the
// address is still probed as a last resort) re-arm it.
func (h *healthTracker) reportFailure(addr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.stateLocked(addr)
	st.sampledAt = h.now()
	st.consecFailures++
	if st.consecFailures >= h.threshold {
		st.openUntil = st.sampledAt.Add(h.cooldown)
	}
}

func (h *healthTracker) stateLocked(addr string) *addrHealth {
	st, ok := h.byAddr[addr]
	if !ok {
		st = &addrHealth{}
		h.byAddr[addr] = st
	}
	return st
}

// score is the sort key for a single address: consecutive failures weighted
// far above latency, then the EWMA round-trip. Never-observed addresses
// score zero and therefore sort ahead of everything with a history, which
// gives each fresh address one exploratory attempt to earn a real latency
// estimate. So does an address whose last sample was a success older than
// the cooldown, which gets an attempt to renew it; the EWMA itself is kept
// for overdueAfter. An address whose last sample was a failure keeps its
// penalty however old it is, so a dead relay never outranks a live one.
func (st *addrHealth) score(now time.Time) float64 {
	if st.consecFailures == 0 && st.stale(now) {
		return 0
	}
	return float64(st.consecFailures)*failurePenaltyNanos + st.ewmaLatency
}

// circuitOpen reports whether the breaker currently demotes the address.
func (h *healthTracker) circuitOpen(addr string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.byAddr[addr]
	return ok && st.openUntil.After(h.now())
}

// order returns addrs reordered by health: addresses whose breaker is
// closed come first, sorted by score (stable, so registry preference order
// breaks ties); circuit-open addresses are demoted to the tail, soonest
// cooldown expiry first, and open reports how many were demoted. The tail
// is kept rather than dropped: when every healthier alternative has failed
// a request, probing an open address is strictly better than failing — so
// "skip" means the open address is never attempted while any healthier
// relay answers, not that it is unreachable by policy.
func (h *healthTracker) order(addrs []string) (ordered []string, open int) {
	if len(addrs) < 2 {
		return addrs, 0
	}
	h.mu.Lock()
	now := h.now()
	type ranked struct {
		addr      string
		score     float64
		openUntil time.Time // zero when the breaker is closed
	}
	rankedAddrs := make([]ranked, len(addrs))
	for i, addr := range addrs {
		entry := ranked{addr: addr}
		if st, ok := h.byAddr[addr]; ok {
			entry.score = st.score(now)
			if st.openUntil.After(now) {
				entry.openUntil = st.openUntil
				open++
			}
		}
		rankedAddrs[i] = entry
	}
	h.mu.Unlock()
	sort.SliceStable(rankedAddrs, func(i, j int) bool {
		oi, oj := !rankedAddrs[i].openUntil.IsZero(), !rankedAddrs[j].openUntil.IsZero()
		if oi != oj {
			return !oi // closed breakers before open ones
		}
		if oi {
			return rankedAddrs[i].openUntil.Before(rankedAddrs[j].openUntil)
		}
		return rankedAddrs[i].score < rankedAddrs[j].score
	})
	ordered = make([]string, len(addrs))
	for i, entry := range rankedAddrs {
		ordered[i] = entry.addr
	}
	if open == len(addrs) {
		// Every breaker is open: nothing is being demoted below anything
		// healthier, so don't report skips the fan-out cannot honour.
		open = 0
	}
	return ordered, open
}

// overdueFactor is how many of an address's usual round trips a query
// attempt may take, beyond its equal share of the budget, before it counts
// as overdue. A live address running a few times slower than usual is
// waited for; a hung one never answers at all.
const overdueFactor = 4

// overdueAfter returns how long a query attempt at addr may run before it
// is abandoned for the left−1 addresses behind it, and whether to cut it
// short at all. The attempt gets an equal share of the remaining budget,
// but never less than overdueFactor times the address's EWMA round trip,
// so a query whose every address is slow but answering as usual is not
// failed over. An address that has never answered has no usual round trip
// to be overdue against, and is not cut short.
func (h *healthTracker) overdueAfter(addr string, remaining time.Duration, left int) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.byAddr[addr]
	if st == nil || st.ewmaLatency == 0 {
		return 0, false
	}
	d := max(remaining/time.Duration(left), time.Duration(overdueFactor*st.ewmaLatency))
	return d, d < remaining
}

// resolveOrdered resolves a network through discovery and reorders the
// addresses by observed health, counting demoted circuit-open addresses in
// the stats.
func (r *Relay) resolveOrdered(networkID string) ([]string, error) {
	addrs, err := r.discovery.Resolve(networkID)
	if err != nil {
		return nil, err
	}
	ordered, open := r.health.order(addrs)
	if open > 0 {
		r.countBreakerSkips(open)
	}
	return ordered, nil
}

// breakerMinBudget is the smallest remaining budget under which a
// deadline-expiry failure is still charged to the address. Below it the
// attempt never had a real chance: the budget was consumed elsewhere
// (typically by an earlier address in the same fan-out), and charging the
// victim would let one wedged relay trip its healthy standbys' breakers.
const breakerMinBudget = 5 * time.Millisecond

// observeSend performs one transport round-trip and feeds the outcome into
// the health tracker. A failure is not charged to the address when the
// send's own context was cancelled — a caller abandoning the request says
// nothing about the address's health. Deadline expiry is charged only when
// the attempt started with a meaningful budget: an address that consumed a
// real budget (its share of a query's, see sendLeg) without answering is
// indistinguishable from a wedged relay (what the tracker exists to
// notice), while one handed an already-spent budget is just the victim of
// an earlier slow address.
func (r *Relay) observeSend(ctx context.Context, addr string, env *wire.Envelope) (*wire.Envelope, error) {
	start := r.now()
	deadline, hasDeadline := ctx.Deadline()
	reply, err := r.transport.Send(ctx, addr, env)
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			// Cancelled by the caller: no health signal.
		case errors.Is(err, context.DeadlineExceeded) && hasDeadline && deadline.Sub(start) < breakerMinBudget:
			// Budget exhausted before this attempt began: not its fault.
		default:
			r.health.reportFailure(addr)
		}
		return nil, err
	}
	r.health.reportSuccess(addr, r.now().Sub(start))
	return reply, nil
}
