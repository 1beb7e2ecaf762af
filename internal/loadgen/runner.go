package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relay"
)

// Driver executes one operation on behalf of one simulated client. Workers
// are numbered 0..Clients-1; implementations typically hold one client
// identity per worker. Do must be safe for concurrent calls with distinct
// worker numbers.
type Driver interface {
	Do(ctx context.Context, worker int, op Op) error
}

// DriverFunc adapts a function to the Driver interface.
type DriverFunc func(ctx context.Context, worker int, op Op) error

// Do implements Driver.
func (f DriverFunc) Do(ctx context.Context, worker int, op Op) error { return f(ctx, worker, op) }

// Error classes for the run's error budget. Availability errors are the
// expected cost of churn — a relay dying under a request; contention
// errors are serializability at work — concurrent writes to a hot key,
// one invalidated at commit; protocol errors mean the system answered
// wrongly and are never acceptable.
const (
	ErrClassAvailability = "availability"
	ErrClassContention   = "contention"
	ErrClassProtocol     = "protocol"
)

// Classify buckets an operation error into the budget classes. Broken
// connections (EOF, resets, timeouts) count as availability alongside the
// relay's own unreachable/exhausted errors: a relay dying under an
// in-flight request surfaces the raw transport error — deliberately not
// failed over on the invoke path, where the outcome is ambiguous.
func Classify(err error) string {
	var netErr net.Error
	switch {
	case err == nil:
		return ""
	// A commit invalidated by a concurrent write reaches the requester as
	// an application error string inside the response — the wire flattens
	// the source relay's typed error, so the message is the only signal.
	case strings.Contains(err.Error(), "tx invalidated"):
		return ErrClassContention
	// A source relay that ran out of the requester's budget flattens its
	// deadline error the same way: an answer too late, not a wrong one.
	case strings.Contains(err.Error(), context.DeadlineExceeded.Error()),
		errors.Is(err, relay.ErrUnreachable),
		errors.Is(err, relay.ErrAllRelaysFailed),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.As(err, &netErr):
		return ErrClassAvailability
	default:
		return ErrClassProtocol
	}
}

// clientStats is one worker's private tally; merged after the run so the
// hot path never shares memory across workers.
type clientStats struct {
	latency map[OpKind]*Histogram // successful ops, µs from Due
	ok      map[OpKind]uint64
	errs    map[OpKind]map[string]uint64
	samples map[string][]string // class → first few error messages
}

func newClientStats() *clientStats {
	c := &clientStats{
		latency: make(map[OpKind]*Histogram, len(OpKinds)),
		ok:      make(map[OpKind]uint64, len(OpKinds)),
		errs:    make(map[OpKind]map[string]uint64, len(OpKinds)),
		samples: make(map[string][]string),
	}
	for _, k := range OpKinds {
		c.latency[k] = NewHistogram()
		c.errs[k] = make(map[string]uint64)
	}
	return c
}

// maxErrorSamples bounds how many error messages are kept per class —
// enough to diagnose a budget breach without hoarding a failing run's
// entire output.
const maxErrorSamples = 5

// RunStats is the merged outcome of a run, latencies in microseconds.
type RunStats struct {
	Issued       uint64
	OK           uint64
	Failed       uint64
	Wall         time.Duration
	Latency      map[OpKind]*Histogram
	OKByKind     map[OpKind]uint64
	ErrsByKind   map[OpKind]map[string]uint64
	ErrsByClass  map[string]uint64
	ErrorSamples map[string][]string
}

// AchievedRate is the completed-operations throughput in ops/sec.
func (s *RunStats) AchievedRate() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.OK) / s.Wall.Seconds()
}

// All returns one histogram holding every successful operation.
func (s *RunStats) All() *Histogram {
	all := NewHistogram()
	for _, h := range s.Latency {
		all.Merge(h)
	}
	return all
}

// Run drives the configured open-loop schedule against the driver with
// cfg.Clients concurrent workers and returns the merged statistics. ctx
// cancellation stops the schedule; workers drain what was already issued.
func Run(ctx context.Context, cfg *Config, d Driver) (*RunStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	ops := schedule(ctx, cfg, start)

	perClient := make([]*clientStats, cfg.Clients)
	var issued atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Clients; w++ {
		perClient[w] = newClientStats()
		wg.Add(1)
		go func(w int, cs *clientStats) {
			defer wg.Done()
			for op := range ops {
				issued.Add(1)
				err := d.Do(ctx, w, op)
				if class := Classify(err); class != "" {
					cs.errs[op.Kind][class]++
					if len(cs.samples[class]) < maxErrorSamples {
						cs.samples[class] = append(cs.samples[class], fmt.Sprintf("%s: %v", op.Kind, err))
					}
					continue
				}
				cs.ok[op.Kind]++
				cs.latency[op.Kind].Record(time.Since(op.Due).Microseconds())
			}
		}(w, perClient[w])
	}
	wg.Wait()

	stats := &RunStats{
		Issued:       issued.Load(),
		Wall:         time.Since(start),
		Latency:      make(map[OpKind]*Histogram, len(OpKinds)),
		OKByKind:     make(map[OpKind]uint64, len(OpKinds)),
		ErrsByKind:   make(map[OpKind]map[string]uint64, len(OpKinds)),
		ErrsByClass:  make(map[string]uint64),
		ErrorSamples: make(map[string][]string),
	}
	for _, k := range OpKinds {
		stats.Latency[k] = NewHistogram()
		stats.ErrsByKind[k] = make(map[string]uint64)
	}
	for _, cs := range perClient {
		for _, k := range OpKinds {
			stats.Latency[k].Merge(cs.latency[k])
			stats.OKByKind[k] += cs.ok[k]
			stats.OK += cs.ok[k]
			for class, n := range cs.errs[k] {
				stats.ErrsByKind[k][class] += n
				stats.ErrsByClass[class] += n
				stats.Failed += n
			}
		}
		for class, msgs := range cs.samples {
			room := maxErrorSamples - len(stats.ErrorSamples[class])
			if room > len(msgs) {
				room = len(msgs)
			}
			if room > 0 {
				stats.ErrorSamples[class] = append(stats.ErrorSamples[class], msgs[:room]...)
			}
		}
	}
	return stats, nil
}
