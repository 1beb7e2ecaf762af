package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// appendField re-encodes one extra occurrence of a field onto an already
// valid message encoding. wt selects the shape: "uint" or "bytes".
func appendField(valid []byte, field int, wt string) []byte {
	e := NewEncoder(16)
	switch wt {
	case "uint":
		e.Uint(field, 7)
	default:
		e.BytesField(field, []byte("dup"))
	}
	return append(append([]byte{}, valid...), e.Bytes()...)
}

func TestDecodersRejectDuplicateScalarFields(t *testing.T) {
	// Our own encoders never emit a scalar field twice (zero values are
	// omitted, non-zero values are written once), so a second occurrence is
	// always a crafted message aiming at last-write-wins confusion: present
	// digest-checked bytes in the first occurrence, smuggle different
	// content in the second. Every decoder must hard-fail instead.
	att := &Attestation{PeerName: "p0", OrgID: "org", CertPEM: []byte("cert"),
		EncryptedMetadata: []byte("em"), Signature: []byte("sig"),
		BatchSize: 2, BatchIndex: 1, BatchPath: [][]byte{[]byte("h0")}}
	cases := []struct {
		name   string
		valid  []byte
		field  int
		wt     string
		decode func([]byte) error
	}{
		{"envelope/type", (&Envelope{Type: MsgQuery, RequestID: "r", Payload: []byte("p")}).Marshal(), 2, "uint",
			func(b []byte) error { _, err := UnmarshalEnvelope(b); return err }},
		{"envelope/max_hops", (&Envelope{Type: MsgQuery, RequestID: "r", Route: []string{"a"}, MaxHops: 4}).Marshal(), 8, "uint",
			func(b []byte) error { _, err := UnmarshalEnvelope(b); return err }},
		{"hop_pin/pin", (&HopPin{Network: "hub", Pin: []byte("pin"), Signature: []byte("sig")}).Marshal(), 3, "bytes",
			func(b []byte) error { _, err := UnmarshalHopPin(b); return err }},
		{"hop_pin/signature", (&HopPin{Network: "hub", Pin: []byte("pin"), Signature: []byte("sig")}).Marshal(), 4, "bytes",
			func(b []byte) error { _, err := UnmarshalHopPin(b); return err }},
		{"query/request_id", (&Query{RequestID: "r", Contract: "c", Function: "f"}).Marshal(), 1, "bytes",
			func(b []byte) error { _, err := UnmarshalQuery(b); return err }},
		{"query/policy_digest", (&Query{RequestID: "r", PolicyDigest: []byte("pd")}).Marshal(), 12, "bytes",
			func(b []byte) error { _, err := UnmarshalQuery(b); return err }},
		{"attestation/signature", att.Marshal(), 5, "bytes",
			func(b []byte) error { _, err := UnmarshalAttestation(b); return err }},
		{"attestation/batch_size", att.Marshal(), 6, "uint",
			func(b []byte) error { _, err := UnmarshalAttestation(b); return err }},
		{"metadata/result_digest", (&Metadata{NetworkID: "n", ResultDigest: []byte("rd")}).Marshal(), 5, "bytes",
			func(b []byte) error { _, err := UnmarshalMetadata(b); return err }},
		{"query_response/encrypted_result", (&QueryResponse{RequestID: "r", EncryptedResult: []byte("enc")}).Marshal(), 2, "bytes",
			func(b []byte) error { _, err := UnmarshalQueryResponse(b); return err }},
		{"org_config/root_cert", (&OrgConfig{OrgID: "o", RootCertPEM: []byte("root")}).Marshal(), 2, "bytes",
			func(b []byte) error { _, err := UnmarshalOrgConfig(b); return err }},
		{"network_config/network_id", (&NetworkConfig{NetworkID: "n"}).Marshal(), 1, "bytes",
			func(b []byte) error { _, err := UnmarshalNetworkConfig(b); return err }},
		{"event/subscription_id", (&Event{SubscriptionID: "sub-1"}).Marshal(), 1, "bytes",
			func(b []byte) error { _, err := UnmarshalEvent(b); return err }},
		{"subscription/id", (&Subscription{SubscriptionID: "sub-1"}).Marshal(), 1, "bytes",
			func(b []byte) error { _, err := UnmarshalSubscription(b); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.decode(tc.valid); err != nil {
				t.Fatalf("control decode failed: %v", err)
			}
			crafted := appendField(tc.valid, tc.field, tc.wt)
			err := tc.decode(crafted)
			if err == nil {
				t.Fatal("duplicate scalar field accepted")
			}
			if !strings.Contains(err.Error(), "duplicate scalar field") {
				t.Fatalf("wrong refusal: %v", err)
			}
		})
	}
}

func TestDecodersStillAcceptRepeatedFields(t *testing.T) {
	// Genuinely repeated fields — list-valued by design — must keep
	// accepting any number of occurrences.
	q, err := UnmarshalQuery((&Query{RequestID: "r", Args: [][]byte{[]byte("a"), []byte("b"), []byte("c")}}).Marshal())
	if err != nil {
		t.Fatalf("query args: %v", err)
	}
	if len(q.Args) != 3 {
		t.Fatalf("args = %d", len(q.Args))
	}
	att, err := UnmarshalAttestation((&Attestation{PeerName: "p", BatchSize: 4, BatchPath: [][]byte{[]byte("h0"), []byte("h1")}}).Marshal())
	if err != nil {
		t.Fatalf("attestation batch path: %v", err)
	}
	if len(att.BatchPath) != 2 {
		t.Fatalf("batch path = %d", len(att.BatchPath))
	}
	oc, err := UnmarshalOrgConfig((&OrgConfig{OrgID: "o", PeerNames: []string{"p0", "p1"}}).Marshal())
	if err != nil {
		t.Fatalf("org config peers: %v", err)
	}
	if len(oc.PeerNames) != 2 {
		t.Fatalf("peers = %d", len(oc.PeerNames))
	}
	env, err := UnmarshalEnvelope((&Envelope{Type: MsgQuery, Route: []string{"a", "b", "c"}}).Marshal())
	if err != nil {
		t.Fatalf("envelope route: %v", err)
	}
	if len(env.Route) != 3 {
		t.Fatalf("route = %d", len(env.Route))
	}
	resp, err := UnmarshalQueryResponse((&QueryResponse{RequestID: "r",
		HopPins: []HopPin{{Network: "h1"}, {Network: "h2"}}}).Marshal())
	if err != nil {
		t.Fatalf("response hop pins: %v", err)
	}
	if len(resp.HopPins) != 2 {
		t.Fatalf("hop pins = %d", len(resp.HopPins))
	}
}

// withRetiredCapabilities appends raw fields 13 and 14 — the batching and
// sessioned-envelope capability bits every client sent while the proof
// envelope was negotiated — to an encoded query.
func withRetiredCapabilities(q []byte) []byte {
	e := NewEncoder(8)
	e.Uint(13, 1)
	e.Uint(14, 1)
	return append(append([]byte{}, q...), e.Bytes()...)
}

func TestQueryDecodesRetiredCapabilityFieldsAsAbsent(t *testing.T) {
	q := &Query{RequestID: "r", RequestingNetwork: "we-trade", TargetNetwork: "tradelens",
		Contract: "c", Function: "f", Args: [][]byte{[]byte("a")}, PolicyExpr: "'org'",
		RequesterCertPEM: []byte("cert"), Nonce: []byte("nonce"), PolicyDigest: []byte("pd")}
	got, err := UnmarshalQuery(withRetiredCapabilities(q.Marshal()))
	if err != nil {
		t.Fatalf("query from an older client refused: %v", err)
	}
	if !reflect.DeepEqual(got, q) {
		t.Fatalf("decoded %+v, want %+v", got, q)
	}
	if !bytes.Equal(got.Marshal(), q.Marshal()) {
		t.Fatal("retired fields survived re-encoding")
	}
}

// TestScalarGuardRange: the duplicate guard covers scalar fields 1–63.
// On the wire, a field numbered 64 or more, like any field no walk names,
// is an unknown field the decoder skips, however often it occurs; field
// number 0 is refused. In a walk, a scalar field outside 1–63 is a
// programming error that panics in every mode.
func TestScalarGuardRange(t *testing.T) {
	env := &Envelope{Version: 1, Type: MsgQuery, RequestID: "r", Route: []string{"a"}, MaxHops: 4}
	unknown := NewEncoder(32)
	for _, f := range []int{64, 64, 40, 40, 1 << 20} {
		unknown.Uint(f, 7)
		unknown.BytesField(f, []byte("future"))
	}
	got, err := UnmarshalEnvelope(append(env.Marshal(), unknown.Bytes()...))
	if err != nil {
		t.Fatalf("unknown fields refused: %v", err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("decoded %+v, want %+v", got, env)
	}
	if _, err := UnmarshalEnvelope(append(env.Marshal(), 0x00)); err == nil {
		t.Fatal("field number 0 accepted")
	}

	for _, f := range []int{0, 64} {
		m := &outOfRange{field: f, v: 1}
		mustPanic(t, f, "count", func() { var c Walk; m.walk(&c) })
		mustPanic(t, f, "write", func() { w := Writing(16); m.walk(&w) })
		mustPanic(t, f, "decode", func() {
			w := Decoding((&Envelope{Version: 1}).Marshal())
			for w.Next() {
				m.walk(&w)
			}
		})
	}
}

// outOfRange is a message whose walk names a scalar field outside the
// duplicate guard's range.
type outOfRange struct {
	field int
	v     uint64
}

func (m *outOfRange) walk(w *Walk) { w.Uint(m.field, &m.v) }

func mustPanic(t *testing.T, field int, mode string, run func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("scalar field %d, %s walk: no panic", field, mode)
		}
	}()
	run()
}
