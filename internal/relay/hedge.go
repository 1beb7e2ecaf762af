package relay

import (
	"context"
	"fmt"
	"time"

	"repro/internal/wire"
)

// Hedging configures hedged fan-out over a target network's relay
// addresses: instead of waiting for an attempt to fail outright before
// trying the next address (sequential failover), the relay opens a hedge
// attempt against the next address once the current one has been
// outstanding for Delay. The first valid response wins and every other
// in-flight attempt is cancelled. This bounds the tail latency a slow or
// DoS-ed relay can impose (§5) at the cost of some duplicate load.
type Hedging struct {
	// Delay is how long an attempt may stay outstanding before a hedge
	// opens against the next address. Zero means 50ms.
	Delay time.Duration
	// MaxParallel bounds concurrently outstanding attempts. Zero or one
	// means 2.
	MaxParallel int
}

// WithHedging enables hedged fan-out for queries, at the origin and on
// every leg a hub forwards. Invokes and subscribes never hedge: they are
// not idempotent, and a hedge could commit a transaction twice (see
// sendLeg).
func WithHedging(delay time.Duration, maxParallel int) Option {
	return func(r *Relay) { r.hedge = &Hedging{Delay: delay, MaxParallel: maxParallel} }
}

// stampDeadline records ctx's remaining budget in the envelope so the
// source relay inherits it: both as an absolute deadline and as a relative
// remaining duration. The receiver takes the laxer of the two (see
// remainingBudget), which makes propagation robust to clock skew between
// relays — a receiver with a fast clock no longer reads the absolute
// deadline as already past and kills the request on arrival. Because the
// relative encoding goes stale as time passes, fan-out restamps before
// every transport attempt: a failover send after a slow first attempt must
// carry the budget remaining now, not the budget at first stamp.
func (r *Relay) stampDeadline(ctx context.Context, env *wire.Envelope) {
	deadline, ok := ctx.Deadline()
	if !ok {
		env.DeadlineUnixNano, env.TimeoutNanos = 0, 0
		return
	}
	env.DeadlineUnixNano = uint64(deadline.UnixNano())
	env.TimeoutNanos = 0
	if rem := deadline.Sub(r.now()); rem > 0 {
		env.TimeoutNanos = uint64(rem)
	}
}

// sendHedged races attempts across addrs: the first address is tried
// immediately, the next one after the hedge delay (or immediately when an
// attempt fails), up to MaxParallel outstanding at once. The first reply
// wins; losers are cancelled through the shared attempt context.
func (r *Relay) sendHedged(ctx context.Context, network string, addrs []string, env *wire.Envelope) (*wire.Envelope, error) {
	hedgeDelay := r.hedge.Delay
	if hedgeDelay <= 0 {
		hedgeDelay = 50 * time.Millisecond
	}
	maxParallel := r.hedge.MaxParallel
	if maxParallel <= 1 {
		maxParallel = 2
	}

	attemptCtx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	type outcome struct {
		index int
		reply *wire.Envelope
		err   error
	}
	// Buffered to the maximum number of attempts so late losers never
	// block: every launched goroutine can deliver and exit.
	results := make(chan outcome, len(addrs))
	next, inflight := 0, 0
	launch := func() {
		index, addr := next, addrs[next]
		next++
		inflight++
		r.countFanoutAttempt()
		// Each attempt sends its own shallow copy restamped with the budget
		// remaining at launch: hedges opened later carry a fresher relative
		// budget, and no goroutine mutates the shared envelope.
		attemptEnv := *env
		r.stampDeadline(ctx, &attemptEnv)
		go func() {
			reply, err := r.observeSend(attemptCtx, addr, &attemptEnv)
			results <- outcome{index: index, reply: reply, err: err}
		}()
	}
	launch()
	timer := time.NewTimer(hedgeDelay)
	defer timer.Stop()
	var lastErr error
	// An application-level MsgError reply must not win the race outright:
	// the duplicate load hedging creates can itself trip server-side
	// checks (e.g. the rate limiter), and letting that instant error
	// cancel a healthy-but-slower attempt would turn hedging into an
	// availability loss. Error replies are held as the fallback outcome
	// while real responses are still possible.
	var errorReply *wire.Envelope
	exhausted := func() (*wire.Envelope, error) {
		if errorReply != nil {
			return errorReply, nil
		}
		return nil, fmt.Errorf("%w for %s: %w", ErrAllRelaysFailed, network, lastErr)
	}
	for {
		var hedgeC <-chan time.Time
		if next < len(addrs) && inflight < maxParallel {
			hedgeC = timer.C
		}
		select {
		case <-ctx.Done():
			if errorReply != nil {
				// Surface the diagnostic the relay already gave us rather
				// than a bare deadline error.
				return errorReply, nil
			}
			return nil, ctx.Err()
		case <-hedgeC:
			launch()
			timer.Reset(hedgeDelay)
		case out := <-results:
			inflight--
			if out.err == nil && out.reply.Type != wire.MsgError {
				if out.index > 0 {
					r.countHedgedWin()
				}
				r.countHedgedLosses(inflight)
				return out.reply, nil
			}
			if out.err != nil {
				lastErr = out.err
			} else {
				errorReply = out.reply
			}
			if next < len(addrs) && inflight < maxParallel {
				// A failed attempt frees its slot: open the next hedge
				// immediately rather than waiting out the delay.
				launch()
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(hedgeDelay)
			} else if inflight == 0 && next == len(addrs) {
				return exhausted()
			}
		}
	}
}
