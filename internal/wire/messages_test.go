package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleQuery() *Query {
	return &Query{
		RequestID:         "req-001",
		RequestingNetwork: "we-trade",
		TargetNetwork:     "tradelens",
		Ledger:            "default",
		Contract:          "TradeLensCC",
		Function:          "GetBillOfLading",
		Args:              [][]byte{[]byte("po-1001"), {}},
		PolicyExpr:        "AND('seller-org','carrier-org')",
		RequesterCertPEM:  []byte("-----BEGIN CERTIFICATE-----..."),
		RequesterOrg:      "seller-bank-org",
		Nonce:             []byte{1, 2, 3, 4},
		PolicyDigest:      []byte{0xEE, 0xFF, 0x01, 0x02},
	}
}

func TestQueryRoundTrip(t *testing.T) {
	q := sampleQuery()
	got, err := UnmarshalQuery(q.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalQuery: %v", err)
	}
	if got.RequestID != q.RequestID || got.TargetNetwork != q.TargetNetwork ||
		got.Function != q.Function || got.PolicyExpr != q.PolicyExpr ||
		got.RequesterOrg != q.RequesterOrg {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if len(got.Args) != 2 || !bytes.Equal(got.Args[0], []byte("po-1001")) || len(got.Args[1]) != 0 {
		t.Fatalf("args mismatch: %q", got.Args)
	}
	if !bytes.Equal(got.Nonce, q.Nonce) {
		t.Fatal("nonce mismatch")
	}
	if !bytes.Equal(got.PolicyDigest, q.PolicyDigest) {
		t.Fatal("policy digest mismatch")
	}
}

func TestQueryEmptyArgsPreserved(t *testing.T) {
	q := &Query{Function: "f", Args: [][]byte{{}, {}, {}}}
	got, err := UnmarshalQuery(q.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalQuery: %v", err)
	}
	if len(got.Args) != 3 {
		t.Fatalf("empty args not preserved: %d", len(got.Args))
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	env := &Envelope{
		Version:   ProtocolVersion,
		Type:      MsgQuery,
		RequestID: "req-7",
		Payload:   []byte("inner"),
	}
	got, err := UnmarshalEnvelope(env.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalEnvelope: %v", err)
	}
	if !reflect.DeepEqual(env, got) {
		t.Fatalf("round-trip mismatch: %+v vs %+v", env, got)
	}
}

func TestEnvelopeDeadlineRoundTrip(t *testing.T) {
	env := &Envelope{
		Version:      ProtocolVersion,
		Type:         MsgQuery,
		RequestID:    "req-8",
		Payload:      []byte("inner"),
		TimeoutNanos: 30_000_000_000,
	}
	got, err := UnmarshalEnvelope(env.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalEnvelope: %v", err)
	}
	if got.TimeoutNanos != env.TimeoutNanos {
		t.Fatalf("timeout = %d, want %d", got.TimeoutNanos, env.TimeoutNanos)
	}
	// Zero means unbounded and round-trips as zero.
	unbounded := &Envelope{Version: ProtocolVersion, Type: MsgPing, RequestID: "p"}
	got, err = UnmarshalEnvelope(unbounded.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalEnvelope: %v", err)
	}
	if got.TimeoutNanos != 0 {
		t.Fatalf("unbounded timeout = %d, want 0", got.TimeoutNanos)
	}
}

// TestKnownAnswerEnvelopeDeadline pins the bytes of a bounded request: its
// budget travels only as the relative field 6. Field 5, the retired
// absolute deadline, is never written, and one in an envelope from an
// older sender is skipped as unknown. A changed constant here is a wire
// change.
func TestKnownAnswerEnvelopeDeadline(t *testing.T) {
	env := &Envelope{Version: ProtocolVersion, Type: MsgQuery, RequestID: "req-8", Payload: []byte("inner"),
		TimeoutNanos: 30_000_000_000}
	const want = "0801" + "1001" + "1a05" + "7265712d38" + "2205" + "696e6e6572" + "3080d88ee16f"
	if got := hex.EncodeToString(env.Marshal()); got != want {
		t.Fatalf("bounded envelope = %s, want %s", got, want)
	}
	const retired = "28959a86e8dadeebaa18" // field 5: 1_753_500_000_123_456_789
	legacy, err := hex.DecodeString(want + retired)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := UnmarshalEnvelope(legacy)
	if err != nil || !reflect.DeepEqual(decoded, env) {
		t.Fatalf("envelope with field 5 decoded to %+v (%v), want %+v", decoded, err, env)
	}
	if got := hex.EncodeToString(decoded.Marshal()); got != want {
		t.Fatalf("re-encoded envelope = %s, want %s", got, want)
	}
}

func TestEnvelopeRouteRoundTrip(t *testing.T) {
	env := &Envelope{
		Version:   ProtocolVersion,
		Type:      MsgQuery,
		RequestID: "req-10",
		Payload:   []byte("inner"),
		Route:     []string{"we-trade", "hub-1-net", "hub-2-net"},
		MaxHops:   4,
	}
	got, err := UnmarshalEnvelope(env.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalEnvelope: %v", err)
	}
	if !reflect.DeepEqual(env, got) {
		t.Fatalf("round-trip mismatch: %+v vs %+v", env, got)
	}
	if !got.RouteContains("hub-1-net") || got.RouteContains("tradelens") {
		t.Fatalf("RouteContains wrong over %q", got.Route)
	}
	// An envelope with no route stays byte-identical to the pre-route
	// encoding: older relays see exactly the bytes they always did.
	legacy := &Envelope{Version: ProtocolVersion, Type: MsgQuery, RequestID: "r", Payload: []byte("p")}
	withZero := &Envelope{Version: ProtocolVersion, Type: MsgQuery, RequestID: "r", Payload: []byte("p"), Route: nil, MaxHops: 0}
	if !bytes.Equal(legacy.Marshal(), withZero.Marshal()) {
		t.Fatal("zero route fields changed the legacy encoding")
	}
}

func TestHopPinRoundTrip(t *testing.T) {
	pin := &HopPin{
		Network:   "hub-1-net",
		CertPEM:   []byte("-----BEGIN CERTIFICATE-----..."),
		Pin:       bytes.Repeat([]byte{0x11}, 32),
		Signature: []byte{1, 2, 3, 4},
	}
	got, err := UnmarshalHopPin(pin.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalHopPin: %v", err)
	}
	if !reflect.DeepEqual(pin, got) {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}

func TestQueryResponseHopPinsRoundTrip(t *testing.T) {
	r := &QueryResponse{
		RequestID:       "req-11",
		EncryptedResult: []byte("ciphertext"),
		HopPins: []HopPin{
			{Network: "hub-2-net", Pin: []byte{0xA}, Signature: []byte{1}},
			{Network: "hub-1-net", Pin: []byte{0xB}, Signature: []byte{2}},
		},
	}
	got, err := UnmarshalQueryResponse(r.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalQueryResponse: %v", err)
	}
	if len(got.HopPins) != 2 || got.HopPins[0].Network != "hub-2-net" || got.HopPins[1].Network != "hub-1-net" {
		t.Fatalf("hop pin order lost: %+v", got.HopPins)
	}
	// Pin-free responses keep the pre-hop-pin encoding byte-identical.
	legacy := &QueryResponse{RequestID: "r", EncryptedResult: []byte("enc")}
	withZero := &QueryResponse{RequestID: "r", EncryptedResult: []byte("enc"), HopPins: nil}
	if !bytes.Equal(legacy.Marshal(), withZero.Marshal()) {
		t.Fatal("zero hop pins changed the legacy encoding")
	}
}

func TestAttestationRoundTrip(t *testing.T) {
	a := &Attestation{
		PeerName:          "peer0",
		OrgID:             "carrier-org",
		CertPEM:           []byte("certpem"),
		EncryptedMetadata: []byte{9, 8, 7},
		Signature:         []byte{1, 1, 2, 3, 5},
	}
	got, err := UnmarshalAttestation(a.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalAttestation: %v", err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}

func TestMetadataRoundTrip(t *testing.T) {
	m := &Metadata{
		NetworkID:    "tradelens",
		PeerName:     "peer1",
		OrgID:        "seller-org",
		QueryDigest:  bytes.Repeat([]byte{0xAA}, 32),
		ResultDigest: bytes.Repeat([]byte{0xBB}, 32),
		Nonce:        []byte{4, 5, 6},
		UnixNano:     1700000000123456789,
		PolicyDigest: bytes.Repeat([]byte{0xCC}, 32),
	}
	got, err := UnmarshalMetadata(m.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalMetadata: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}

func TestQueryResponseRoundTrip(t *testing.T) {
	r := &QueryResponse{
		RequestID:       "req-9",
		EncryptedResult: []byte("ciphertext"),
		Attestations: []Attestation{
			{PeerName: "p0", OrgID: "o0", Signature: []byte{1}},
			{PeerName: "p1", OrgID: "o1", Signature: []byte{2}},
		},
		PolicyDigest: bytes.Repeat([]byte{0xDD}, 32),
	}
	got, err := UnmarshalQueryResponse(r.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalQueryResponse: %v", err)
	}
	if got.RequestID != "req-9" || len(got.Attestations) != 2 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if got.Attestations[1].PeerName != "p1" {
		t.Fatalf("attestation order lost: %+v", got.Attestations)
	}
	if !bytes.Equal(got.PolicyDigest, r.PolicyDigest) {
		t.Fatalf("policy digest lost: %x", got.PolicyDigest)
	}
}

func TestQueryResponseErrorOnly(t *testing.T) {
	r := &QueryResponse{RequestID: "req", Error: "access denied"}
	got, err := UnmarshalQueryResponse(r.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalQueryResponse: %v", err)
	}
	if got.Error != "access denied" || len(got.Attestations) != 0 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}

func TestNetworkConfigRoundTrip(t *testing.T) {
	c := &NetworkConfig{
		NetworkID: "tradelens",
		Platform:  "fabric",
		Orgs: []OrgConfig{
			{OrgID: "seller-org", RootCertPEM: []byte("root1"), PeerNames: []string{"peer0"}},
			{OrgID: "carrier-org", RootCertPEM: []byte("root2"), PeerNames: []string{"peer0", "peer1"}},
		},
	}
	got, err := UnmarshalNetworkConfig(c.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalNetworkConfig: %v", err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}

func TestEventRoundTrip(t *testing.T) {
	ev := &Event{
		SubscriptionID: "sub-1",
		SourceNetwork:  "tradelens",
		Name:           "bl-issued",
		Payload:        []byte("po-1001"),
		UnixNano:       42,
	}
	got, err := UnmarshalEvent(ev.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalEvent: %v", err)
	}
	if !reflect.DeepEqual(ev, got) {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}

func TestSubscriptionRoundTrip(t *testing.T) {
	s := &Subscription{
		SubscriptionID:    "sub-2",
		RequestingNetwork: "we-trade",
		TargetNetwork:     "tradelens",
		EventName:         "bl-issued",
		RequesterCertPEM:  []byte("pem"),
	}
	got, err := UnmarshalSubscription(s.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalSubscription: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	garbage := bytes.Repeat([]byte{0xFF}, 12)
	if _, err := UnmarshalQuery(garbage); err == nil {
		t.Fatal("UnmarshalQuery accepted garbage")
	}
	if _, err := UnmarshalEnvelope(garbage); err == nil {
		t.Fatal("UnmarshalEnvelope accepted garbage")
	}
	if _, err := UnmarshalQueryResponse(garbage); err == nil {
		t.Fatal("UnmarshalQueryResponse accepted garbage")
	}
}

func TestMsgTypeString(t *testing.T) {
	cases := map[MsgType]string{
		MsgQuery:         "query",
		MsgQueryResponse: "query-response",
		MsgError:         "error",
		MsgPing:          "ping",
		MsgPong:          "pong",
		MsgEvent:         "event",
		MsgSubscribe:     "subscribe",
		MsgType(99):      "msgtype(99)",
	}
	for mt, want := range cases {
		if mt.String() != want {
			t.Fatalf("MsgType(%d).String() = %q, want %q", int(mt), mt.String(), want)
		}
	}
}

// TestQueryRoundTripProperty round-trips randomly generated queries.
func TestQueryRoundTripProperty(t *testing.T) {
	prop := func(reqID, net1, net2, fn string, arg []byte, nonce []byte) bool {
		q := &Query{
			RequestID:         reqID,
			RequestingNetwork: net1,
			TargetNetwork:     net2,
			Function:          fn,
			Args:              [][]byte{arg},
			Nonce:             nonce,
		}
		got, err := UnmarshalQuery(q.Marshal())
		if err != nil {
			return false
		}
		return got.RequestID == reqID && got.RequestingNetwork == net1 &&
			got.TargetNetwork == net2 && got.Function == fn &&
			len(got.Args) == 1 && bytes.Equal(got.Args[0], arg) &&
			bytes.Equal(got.Nonce, nonce)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQueryMarshal(b *testing.B) {
	q := sampleQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = q.Marshal()
	}
}

func BenchmarkQueryUnmarshal(b *testing.B) {
	buf := sampleQuery().Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalQuery(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryResponseMarshal(b *testing.B) {
	r := &QueryResponse{
		RequestID:       "req",
		EncryptedResult: make([]byte, 4096),
		Attestations: []Attestation{
			{PeerName: "p0", OrgID: "o0", CertPEM: make([]byte, 800), EncryptedMetadata: make([]byte, 300), Signature: make([]byte, 72)},
			{PeerName: "p1", OrgID: "o1", CertPEM: make([]byte, 800), EncryptedMetadata: make([]byte, 300), Signature: make([]byte, 72)},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Marshal()
	}
}
