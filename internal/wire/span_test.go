package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// TestEnvelopeTraceKnownAnswer pins the bytes of a traced reply envelope:
// the trace ID is field 9, each span a field-10 message of relay (1),
// stage (2), start offset (3) and duration (4). An untraced envelope has
// neither field, so its bytes are those of an envelope from before
// tracing. A changed constant here is a wire change.
func TestEnvelopeTraceKnownAnswer(t *testing.T) {
	env := &Envelope{Version: ProtocolVersion, Type: MsgQueryResponse, RequestID: "r"}
	const untraced = "0801" + "1002" + "1a0172"
	if got := hex.EncodeToString(env.Marshal()); got != untraced {
		t.Fatalf("untraced envelope = %s, want %s", got, untraced)
	}
	env.Trace = &Trace{ID: "0123456789abcdef", Spans: []Span{{Relay: "tradelens", Stage: "peer_read", StartNanos: 1000, DurNanos: 2000}}}
	const want = untraced +
		"4a10" + "30313233343536373839616263646566" +
		"521c" + "0a09" + "74726164656c656e73" + "1209" + "706565725f72656164" + "18e807" + "20d00f"
	got := env.Marshal()
	if hex.EncodeToString(got) != want {
		t.Fatalf("traced envelope = %x, want %s", got, want)
	}
	decoded, err := UnmarshalEnvelope(got)
	if err != nil || !reflect.DeepEqual(decoded, env) {
		t.Fatalf("decoded %+v (%v), want %+v", decoded, err, env)
	}
}

// TestEnvelopeSpansCappedAndDeduplicated: a reply that carries 1000 spans,
// each sent twice, decodes to the first MaxSpans distinct ones.
func TestEnvelopeSpansCappedAndDeduplicated(t *testing.T) {
	hostile := &Envelope{Version: ProtocolVersion, Type: MsgQueryResponse, Trace: &Trace{ID: "t"}}
	for i := range 1000 {
		s := Span{Relay: "hub", Stage: "queue", StartNanos: uint64(i / 2), DurNanos: 1}
		hostile.Trace.Spans = append(hostile.Trace.Spans, s) // AppendSpan would refuse these
	}
	decoded, err := UnmarshalEnvelope(hostile.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded.Spans()) != MaxSpans {
		t.Fatalf("decoded %d spans, want %d", len(decoded.Spans()), MaxSpans)
	}
	for i, s := range decoded.Spans() {
		if s.StartNanos != uint64(i) {
			t.Fatalf("span %d starts at %d: a duplicate was kept", i, s.StartNanos)
		}
	}
	// The guard keys on relay, stage and start: another stage or relay at
	// the same offset is a distinct span.
	var spans []Span
	for _, s := range []Span{{"a", "x", 1, 1}, {"a", "x", 1, 9}, {"a", "y", 1, 1}, {"b", "x", 1, 1}} {
		spans = AppendSpan(spans, s)
	}
	if len(spans) != 3 {
		t.Fatalf("AppendSpan kept %v, want the three distinct spans", spans)
	}
}

// TestUntracedEnvelopeBytesUnchanged: an envelope without a trace ID
// encodes to the same bytes whatever else it carries, so every
// pre-existing encoding stays valid.
func TestUntracedEnvelopeBytesUnchanged(t *testing.T) {
	env := &Envelope{Version: ProtocolVersion, Type: MsgQuery, RequestID: "req", Payload: []byte("payload"),
		TimeoutNanos: 3, Route: []string{"a", "b"}, MaxHops: 4}
	before := env.Marshal()
	traced := *env
	traced.Trace = &Trace{ID: "abc", Spans: []Span{{Relay: "a", Stage: "codec", DurNanos: 5}}}
	after := traced.Marshal()
	if !bytes.HasPrefix(after, before) {
		t.Fatalf("traced encoding %x does not extend the untraced %x", after, before)
	}
	traced.Trace = &Trace{} // an empty trace writes nothing either
	if !bytes.Equal(traced.Marshal(), before) {
		t.Fatalf("untraced bytes changed: %x", traced.Marshal())
	}
}
