package wire

// MaxSpans bounds the spans one reply envelope carries, and so what a
// traced request can make any relay hold: a decode keeps the first
// MaxSpans and drops the rest.
const MaxSpans = 64

// Trace is the traced part of an envelope: the trace ID a request carries,
// which asks every relay on the path to time its stages, and the spans its
// reply carries back — the answering relay's, after those it received from
// further down the path (AppendSpan, at most MaxSpans). Spans are
// unsigned, and outside the QueryResponse, so hop pins, proofs and cached
// responses never depend on them.
type Trace struct {
	ID    string
	Spans []Span
}

// walk is the envelope's fields 9 (ID) and 10 (Spans).
func (t *Trace) walk(w *Walk) {
	w.String(9, &t.ID)
	if w.Encoding() {
		for i := range t.Spans {
			s := &t.Spans[i]
			w.MessageHeader(10, s.size())
			s.walk(w)
		}
	} else if sub, ok := w.Nested(10); ok {
		var s Span
		for w.NextIn(&sub) {
			s.walk(&sub)
		}
		t.Spans = AppendSpan(t.Spans, s)
	}
}

// TraceID returns the envelope's trace ID, empty when it is untraced.
func (m *Envelope) TraceID() string {
	if m.Trace == nil {
		return ""
	}
	return m.Trace.ID
}

// Spans returns the spans the envelope carries.
func (m *Envelope) Spans() []Span {
	if m.Trace == nil {
		return nil
	}
	return m.Trace.Spans
}

// Span is one timed stage of a traced request on one relay: Stage ran on
// Relay from StartNanos after that relay took up the request (or, at the
// origin, after the client began it) for DurNanos. Offsets from different
// relays are on different clocks and are compared only by duration.
// Spans are unsigned diagnostics: nothing verifies them, and nothing
// signed or hashed covers them.
type Span struct {
	Relay      string
	Stage      string
	StartNanos uint64
	DurNanos   uint64
}

func (m *Span) size() int { var c Walk; m.walk(&c); return c.Len() }

func (m *Span) walk(w *Walk) {
	w.Name(1, &m.Relay)
	w.Name(2, &m.Stage)
	w.Uint(3, &m.StartNanos)
	w.Uint(4, &m.DurNanos)
}

// AppendSpan appends s to spans unless spans already holds MaxSpans or a
// span of the same relay and stage starting at the same offset, which a
// relay copying spans forward would otherwise repeat.
func AppendSpan(spans []Span, s Span) []Span {
	if len(spans) >= MaxSpans {
		return spans
	}
	for i := range spans {
		if h := &spans[i]; h.StartNanos == s.StartNanos && h.Stage == s.Stage && h.Relay == s.Relay {
			return spans
		}
	}
	return append(spans, s)
}
