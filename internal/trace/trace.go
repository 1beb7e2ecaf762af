// Package trace times the stages of one cross-network request on every
// relay it crosses. A traced request carries a trace ID in its envelope
// (wire.Envelope.TraceID); each relay that serves it keeps a Recorder in
// the request's context, and the reply carries the spans back, each relay
// adding its own to those it received (wire.Envelope.Spans), so the client
// ends up holding the path's spans next to the verified hop path.
//
// An untraced request has no Recorder: every Recorder method is a no-op on
// a nil receiver, and Start on nil does not read the clock, so the
// instrumented code costs an untraced request a context lookup and
// nothing it allocates.
package trace

import (
	"context"
	"sync"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// Stage names. Top-level stages do not overlap one another on one relay,
// so their durations add up to the time that relay spent on the request;
// Nested reports the ones that run inside another stage.
const (
	// Client stages (core.Client).
	GatewayEval = "gateway_eval" // a CMDAC lookup through the local gateway
	Open        = "open"         // decrypting the response's envelopes
	Verify      = "verify"       // checking the proof against the recorded config

	// Path stages, at the origin relay and at every hub.
	Queue     = "queue"      // a transport attempt, less the next relay's serve
	Codec     = "codec"      // decoding query and response (a request is encoded into its frame)
	PinVerify = "pin_verify" // verifying the hop chain of a reply
	PinSign   = "pin_sign"   // a hub signing its hop pin
	Serve     = "serve"      // nested: a relay's whole handling of the request

	// Driver stages, at the source relay.
	PeerRead    = "peer_read"    // the attestor peers' reads of the query
	Chaincode   = "cc:"          // nested: prefix of a cross-chaincode call, e.g. cc:ecc
	Cache       = "cache"        // the attestation-cache key and lookup
	WindowWait  = "window_wait"  // waiting for a batching window to close
	Build       = "build"        // building the proof
	Sign        = "sign"         // nested in build: one attestor's signature
	Seal        = "seal"         // nested in build: one attestor's or the result's envelopes
	ReplayCheck = "replay_check" // asking the ledger whether an invoke committed
	Endorse     = "endorse"      // endorsing an invoke
	OrderWait   = "order_wait"   // an invoke waiting for its block to be cut
	Commit      = "commit"       // delivering and committing that block
)

// Nested reports whether stage runs inside another stage of the same
// relay, so that adding it to the top-level stages would count its time
// twice. Attestors sign and seal concurrently, which makes build, not
// their sum, the time a proof took.
func Nested(stage string) bool {
	switch stage {
	case Serve, Sign, Seal:
		return true
	}
	return len(stage) > len(Chaincode) && stage[:len(Chaincode)] == Chaincode
}

// NewID returns a fresh random trace ID.
func NewID() (string, error) {
	return cryptoutil.NewNonceHex(8)
}

// Recorder collects the spans of one traced request on one relay: its own,
// timed from when it was made, and those a reply brought back from further
// down the path. It is safe for concurrent use, since attestors record in
// parallel. The nil Recorder records nothing.
type Recorder struct {
	id    string
	relay string
	base  time.Time

	mu       sync.Mutex
	own      []wire.Span
	received []wire.Span
}

// New returns a recorder for the request traced under id, naming relay as
// the recorder of its spans.
func New(id, relay string) *Recorder {
	return &Recorder{id: id, relay: relay, base: time.Now()}
}

type ctxKey struct{}

// NewContext returns ctx carrying rec.
func NewContext(ctx context.Context, rec *Recorder) context.Context {
	return context.WithValue(ctx, ctxKey{}, rec)
}

// FromContext returns the recorder ctx carries, or nil when the request is
// not traced.
func FromContext(ctx context.Context) *Recorder {
	rec, _ := ctx.Value(ctxKey{}).(*Recorder)
	return rec
}

// ID returns the trace ID, empty for the nil Recorder.
func (r *Recorder) ID() string {
	if r == nil {
		return ""
	}
	return r.id
}

// Start returns the current time for a stage that End closes, or the zero
// time, without reading the clock, when r is nil.
func (r *Recorder) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// End records stage as running from start until now.
func (r *Recorder) End(stage string, start time.Time) {
	if r == nil {
		return
	}
	r.Record(stage, start, time.Since(start))
}

// Record records stage as running for d from start.
func (r *Recorder) Record(stage string, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	s := wire.Span{Relay: r.relay, Stage: stage, StartNanos: uint64(max(start.Sub(r.base), 0)), DurNanos: uint64(max(d, 0))}
	r.mu.Lock()
	r.own = wire.AppendSpan(r.own, s)
	r.mu.Unlock()
}

// CopyTo records r's own spans on dst, at the same times and under dst's
// relay name. A batching window's proof build records on a recorder of its
// own, which serves every request in the window, and copies its spans to
// each traced one.
func (r *Recorder) CopyTo(dst *Recorder) {
	if r == nil || dst == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.own {
		dst.Record(s.Stage, r.base.Add(time.Duration(s.StartNanos)), time.Duration(s.DurNanos))
	}
}

// Merge adds the spans a reply carried, under the same cap and duplicate
// guard as the recorder's own.
func (r *Recorder) Merge(spans []wire.Span) {
	if r == nil || len(spans) == 0 {
		return
	}
	r.mu.Lock()
	for _, s := range spans {
		r.received = wire.AppendSpan(r.received, s)
	}
	r.mu.Unlock()
}

// Spans returns the spans received from further down the path followed
// by the recorder's own, at most wire.MaxSpans in all. The recorder's own
// spans come first in the cap, so a hop that sends a full list of spans
// cannot crowd this relay's out.
func (r *Recorder) Spans() []wire.Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	received := r.received[:min(len(r.received), wire.MaxSpans-len(r.own))]
	out := make([]wire.Span, 0, len(received)+len(r.own))
	return append(append(out, received...), r.own...)
}

// ServeOf returns the duration of relay's serve span among spans, the last
// one it recorded, and whether there is one.
func ServeOf(spans []wire.Span, relay string) (time.Duration, bool) {
	for i := len(spans) - 1; i >= 0; i-- {
		if s := &spans[i]; s.Stage == Serve && s.Relay == relay {
			return time.Duration(s.DurNanos), true
		}
	}
	return 0, false
}
