package relay

import (
	"bufio"
	"bytes"
	"context"
	"testing"

	"repro/internal/trace"
	"repro/internal/wire"
)

// spanStages returns the stages relay recorded among spans.
func spanStages(spans []wire.Span, relay string) map[string]int {
	stages := map[string]int{}
	for _, s := range spans {
		if s.Relay == relay {
			stages[s.Stage]++
		}
	}
	return stages
}

// TestDriverCacheTracedHitLeavesEntryUnwritten: a traced query answered
// from the attestation cache carries its spans on the reply envelope and
// serves the entry's own bytes, which stay as they were: spans never enter
// the shared QueryResponse.
func TestDriverCacheTracedHitLeavesEntryUnwritten(t *testing.T) {
	src, req := newCacheEnv(t)
	q := newQuery(t, req)
	if _, err := src.driver.ServeQuery(context.Background(), q); err != nil {
		t.Fatalf("cold ServeQuery: %v", err)
	}
	var key cacheKey
	for k := range src.driver.cache.entries {
		key = k
	}
	entry := src.driver.cache.get(key)
	snapshot := bytes.Clone(entry)

	env := &wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgQuery, RequestID: "env-1", Payload: q.Marshal(), Trace: &wire.Trace{ID: "trace-1"}}
	reply := src.relay.handle(context.Background(), env)
	stages := spanStages(reply.Spans(), src.relay.localNetwork)
	for _, stage := range []string{trace.Codec, trace.PeerRead, trace.Cache, trace.Serve} {
		if stages[stage] != 1 {
			t.Fatalf("traced hit recorded stages %v, want one %s", stages, stage)
		}
	}
	if stages[trace.Build] != 0 || src.relay.Stats().AttestationCacheHits != 1 {
		t.Fatalf("traced query was not a cache hit: stages %v", stages)
	}
	var frame bytes.Buffer
	if err := wire.WriteEnvelope(&frame, 1, reply); err != nil {
		t.Fatal(err)
	}
	_, payload, err := wire.ReadFrame(bufio.NewReader(&frame))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := wire.UnmarshalEnvelope(payload)
	if err != nil || len(decoded.Spans()) != len(reply.Spans()) || decoded.TraceID() != "" {
		t.Fatalf("reply frame: %d spans, trace ID %q (%v); want %d spans and no ID", len(decoded.Spans()), decoded.TraceID(), err, len(reply.Spans()))
	}
	if !bytes.Equal(src.driver.cache.get(key), snapshot) || &src.driver.cache.get(key)[0] != &entry[0] {
		t.Fatal("a traced hit wrote the cached entry")
	}
	resp, err := wire.UnmarshalQueryResponse(decoded.Payload)
	if err != nil || resp.RequestID != q.RequestID {
		t.Fatalf("served response: %v, ID %q", err, resp.RequestID)
	}
	resp.RequestID = ""
	if !bytes.Equal(resp.Marshal(), snapshot) {
		t.Fatal("traced reply's response differs from the cached one")
	}
}

// hostileTransport is a hop that answers with 1000 spans, each twice, on
// every reply, forging the next relay's serve span too.
type hostileTransport struct{ Transport }

func (h hostileTransport) Send(ctx context.Context, addr string, env *wire.Envelope) (*wire.Envelope, error) {
	reply, err := h.Transport.Send(ctx, addr, env)
	if err != nil {
		return nil, err
	}
	reply.Trace = &wire.Trace{}
	for i := range 1000 {
		s := wire.Span{Relay: "srcnet", Stage: trace.Serve, StartNanos: uint64(i / 2), DurNanos: 1 << 40}
		reply.Trace.Spans = append(reply.Trace.Spans, s)
	}
	return reply, nil
}

// TestTracedOriginBoundsHostileSpans: an origin whose next hop returns
// 1000 spans keeps at most wire.MaxSpans, no two alike, with its own
// stages among them and its queue time untouched by a forged serve span.
func TestTracedOriginBoundsHostileSpans(t *testing.T) {
	hub := NewHub()
	reg := NewStaticRegistry()
	src, _ := newCaptureRelay(reg, hub)
	hub.Attach("src-relay", src)
	reg.Register("srcnet", "src-relay")
	dest := New("destnet", reg, hostileTransport{hub})

	rec := trace.New("trace-h", "destnet")
	if _, err := dest.Query(trace.NewContext(context.Background(), rec), captureQuery(t)); err != nil {
		t.Fatalf("query: %v", err)
	}
	spans := rec.Spans()
	if len(spans) > wire.MaxSpans {
		t.Fatalf("origin holds %d spans, over the cap of %d", len(spans), wire.MaxSpans)
	}
	type id struct {
		relay, stage string
		start        uint64
	}
	seen := map[id]bool{}
	for _, s := range spans {
		k := id{s.Relay, s.Stage, s.StartNanos}
		if seen[k] {
			t.Fatalf("duplicate span %+v kept", s)
		}
		seen[k] = true
	}
	own := spanStages(spans, "destnet")
	// One codec span, the reply's decode: the request is encoded into its
	// frame, inside the queue span.
	if own[trace.Codec] != 1 || own[trace.Queue] != 1 || own[trace.PinVerify] != 1 {
		t.Fatalf("origin stages %v, want one codec, one queue and one pin_verify", own)
	}
	for _, s := range spans {
		if s.Relay == "destnet" && s.Stage == trace.Queue && s.DurNanos == 0 {
			t.Fatal("a forged serve span emptied the origin's queue time")
		}
	}
}
