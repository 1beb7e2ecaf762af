package wire

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// The reference encoders below are the nested-encoder Marshal methods the
// field walks replaced: every embedded message is encoded into its own
// buffer and then copied behind its key. The walks must produce exactly
// their bytes.

func oracleEnvelope(m *Envelope) []byte {
	e := NewEncoder(0)
	e.Uint(1, m.Version)
	e.Uint(2, uint64(m.Type))
	e.String(3, m.RequestID)
	e.BytesField(4, m.Payload)
	e.Uint(6, m.TimeoutNanos)
	for _, hop := range m.Route {
		e.Message(7, []byte(hop))
	}
	e.Uint(8, m.MaxHops)
	return e.Bytes()
}

func oracleQuery(m *Query) []byte {
	e := NewEncoder(0)
	e.String(1, m.RequestID)
	e.String(2, m.RequestingNetwork)
	e.String(3, m.TargetNetwork)
	e.String(4, m.Ledger)
	e.String(5, m.Contract)
	e.String(6, m.Function)
	for _, a := range m.Args {
		e.Message(7, a)
	}
	e.String(8, m.PolicyExpr)
	e.BytesField(9, m.RequesterCertPEM)
	e.String(10, m.RequesterOrg)
	e.BytesField(11, m.Nonce)
	e.BytesField(12, m.PolicyDigest)
	return e.Bytes()
}

func oracleAttestation(m *Attestation) []byte {
	e := NewEncoder(0)
	e.String(1, m.PeerName)
	e.String(2, m.OrgID)
	e.BytesField(3, m.CertPEM)
	e.BytesField(4, m.EncryptedMetadata)
	e.BytesField(5, m.Signature)
	e.Uint(6, m.BatchSize)
	e.Uint(7, m.BatchIndex)
	for _, h := range m.BatchPath {
		e.Message(8, h)
	}
	e.BytesField(9, m.SessionEphemeral)
	e.Uint(10, m.SessionGeneration)
	return e.Bytes()
}

func oracleMetadata(m *Metadata) []byte {
	e := NewEncoder(0)
	e.String(1, m.NetworkID)
	e.String(2, m.PeerName)
	e.String(3, m.OrgID)
	e.BytesField(4, m.QueryDigest)
	e.BytesField(5, m.ResultDigest)
	e.BytesField(6, m.Nonce)
	e.Uint(7, m.UnixNano)
	e.BytesField(8, m.PolicyDigest)
	return e.Bytes()
}

func oracleHopPin(m *HopPin) []byte {
	e := NewEncoder(0)
	e.String(1, m.Network)
	e.BytesField(2, m.CertPEM)
	e.BytesField(3, m.Pin)
	e.BytesField(4, m.Signature)
	return e.Bytes()
}

func oracleQueryResponse(m *QueryResponse) []byte {
	e := NewEncoder(0)
	e.String(1, m.RequestID)
	e.BytesField(2, m.EncryptedResult)
	for i := range m.Attestations {
		e.Message(3, oracleAttestation(&m.Attestations[i]))
	}
	e.String(4, m.Error)
	e.BytesField(5, m.PolicyDigest)
	e.BytesField(6, m.SessionEphemeral)
	e.Uint(7, m.SessionGeneration)
	for i := range m.HopPins {
		e.Message(8, oracleHopPin(&m.HopPins[i]))
	}
	return e.Bytes()
}

// edgeLens are the field lengths at which a length prefix changes width
// (1, 2 and 3 varint bytes), plus the empty field.
var edgeLens = []int{0, 127, 128, 16383, 16384}

// genBytes returns random bytes whose length is an edge length half the
// time and small otherwise.
func genBytes(r *rand.Rand) []byte {
	n := r.Intn(40)
	if r.Intn(2) == 0 {
		n = edgeLens[r.Intn(len(edgeLens))]
	}
	b := make([]byte, n)
	r.Read(b)
	return b
}

func genString(r *rand.Rand) string { return string(genBytes(r)) }

// genUint returns zero (an omitted field), a one-byte varint or a wide one.
func genUint(r *rand.Rand) uint64 {
	switch r.Intn(3) {
	case 0:
		return 0
	case 1:
		return uint64(r.Intn(128))
	default:
		return r.Uint64()
	}
}

func genRepeated[T any](r *rand.Rand, gen func(*rand.Rand) T) []T {
	out := make([]T, r.Intn(4))
	for i := range out {
		out[i] = gen(r)
	}
	return out
}

func genEnvelope(r *rand.Rand) *Envelope {
	return &Envelope{
		Version: genUint(r), Type: MsgType(genUint(r)), RequestID: genString(r), Payload: genBytes(r),
		TimeoutNanos: genUint(r), Route: genRepeated(r, genString), MaxHops: genUint(r),
	}
}

func genQuery(r *rand.Rand) *Query {
	return &Query{
		RequestID: genString(r), RequestingNetwork: genString(r), TargetNetwork: genString(r),
		Ledger: genString(r), Contract: genString(r), Function: genString(r), Args: genRepeated(r, genBytes),
		PolicyExpr: genString(r), RequesterCertPEM: genBytes(r), RequesterOrg: genString(r),
		Nonce: genBytes(r), PolicyDigest: genBytes(r),
	}
}

func genAttestation(r *rand.Rand) Attestation {
	return Attestation{
		PeerName: genString(r), OrgID: genString(r), CertPEM: genBytes(r), EncryptedMetadata: genBytes(r),
		Signature: genBytes(r), BatchSize: genUint(r), BatchIndex: genUint(r), BatchPath: genRepeated(r, genBytes),
		SessionEphemeral: genBytes(r), SessionGeneration: genUint(r),
	}
}

func genMetadata(r *rand.Rand) *Metadata {
	return &Metadata{
		NetworkID: genString(r), PeerName: genString(r), OrgID: genString(r), QueryDigest: genBytes(r),
		ResultDigest: genBytes(r), Nonce: genBytes(r), UnixNano: genUint(r), PolicyDigest: genBytes(r),
	}
}

func genHopPin(r *rand.Rand) HopPin {
	return HopPin{Network: genString(r), CertPEM: genBytes(r), Pin: genBytes(r), Signature: genBytes(r)}
}

func genQueryResponse(r *rand.Rand) *QueryResponse {
	return &QueryResponse{
		RequestID: genString(r), EncryptedResult: genBytes(r), Attestations: genRepeated(r, genAttestation),
		Error: genString(r), PolicyDigest: genBytes(r), SessionEphemeral: genBytes(r),
		SessionGeneration: genUint(r), HopPins: genRepeated(r, genHopPin),
	}
}

// checkWalk runs the codec properties over generated messages: Marshal
// fills exactly the one buffer it allocates, matches the reference
// encoder byte for byte, and decoding then re-encoding is a fixed point.
func checkWalk[M any](t *testing.T, gen func(*rand.Rand) M, marshal, oracle func(M) []byte, unmarshal func([]byte) (M, error)) {
	t.Helper()
	prop := func(m M) bool {
		b := marshal(m)
		if len(b) != cap(b) {
			t.Logf("Marshal: len %d, cap %d", len(b), cap(b))
			return false
		}
		if want := oracle(m); !bytes.Equal(b, want) {
			t.Logf("Marshal differs from the reference encoding: %d vs %d bytes", len(b), len(want))
			return false
		}
		got, err := unmarshal(b)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		return bytes.Equal(marshal(got), b)
	}
	cfg := &quick.Config{MaxCount: 150, Values: func(args []reflect.Value, r *rand.Rand) {
		args[0] = reflect.ValueOf(gen(r))
	}}
	if err := quick.Check(prop, cfg); err != nil {
		// Not err itself: it prints the whole generated message.
		t.Fatalf("property failed on generated message %d", err.(*quick.CheckError).Count)
	}
}

func TestWalkEnvelope(t *testing.T) {
	checkWalk(t, genEnvelope, (*Envelope).Marshal, oracleEnvelope, UnmarshalEnvelope)
	// A frame carries the same bytes behind its header.
	r := rand.New(rand.NewSource(42))
	for range 150 {
		m := genEnvelope(r)
		var buf bytes.Buffer
		if err := WriteEnvelope(&buf, 1, m); err != nil {
			t.Fatalf("WriteEnvelope: %v", err)
		}
		if _, payload, err := ReadFrame(bufio.NewReader(&buf)); err != nil || !bytes.Equal(payload, oracleEnvelope(m)) {
			t.Fatalf("frame payload differs from the reference encoding (%v)", err)
		}
	}
}

func TestWalkQuery(t *testing.T) {
	checkWalk(t, genQuery, (*Query).Marshal, oracleQuery, UnmarshalQuery)
}

func TestWalkAttestation(t *testing.T) {
	gen := func(r *rand.Rand) *Attestation { a := genAttestation(r); return &a }
	checkWalk(t, gen, (*Attestation).Marshal, oracleAttestation, UnmarshalAttestation)
}

func TestWalkMetadata(t *testing.T) {
	checkWalk(t, genMetadata, (*Metadata).Marshal, oracleMetadata, UnmarshalMetadata)
}

func TestWalkHopPin(t *testing.T) {
	gen := func(r *rand.Rand) *HopPin { p := genHopPin(r); return &p }
	checkWalk(t, gen, (*HopPin).Marshal, oracleHopPin, UnmarshalHopPin)
}

func TestWalkQueryResponse(t *testing.T) {
	checkWalk(t, genQueryResponse, (*QueryResponse).Marshal, oracleQueryResponse, UnmarshalQueryResponse)
}

// TestWalkResponseEnvelope: a reply whose response is left unencoded
// writes the frame, and marshals to the bytes, of the same reply with
// Payload holding the reference encoding of the response. That holds for
// responses carrying 0–4 hop pins, for the stamped form of each under an
// ID of every length-prefix width (the empty ID stamps nothing), and for a
// response with nothing to encode, whose field 4 is omitted. EncodePayload
// then fills Payload with exactly those bytes, in one exactly-sized
// buffer, and the stamped form never writes into the bytes it stamps.
func TestWalkResponseEnvelope(t *testing.T) {
	frame := func(env *Envelope) []byte {
		var buf bytes.Buffer
		if err := WriteEnvelope(&buf, 7, env); err != nil {
			t.Fatalf("WriteEnvelope: %v", err)
		}
		return buf.Bytes()
	}
	check := func(what string, reply *Envelope, payload []byte) {
		t.Helper()
		filled := &Envelope{Version: ProtocolVersion, Type: MsgQueryResponse, RequestID: reply.RequestID, Payload: payload}
		want := frame(filled)
		if !bytes.Equal(frame(reply), want) {
			t.Fatalf("%s: the frame differs from that of the filled envelope", what)
		}
		if !bytes.Equal(reply.Marshal(), oracleEnvelope(filled)) {
			t.Fatalf("%s: Marshal differs from the reference encoding", what)
		}
		reply.EncodePayload()
		if !bytes.Equal(reply.Payload, payload) || len(reply.Payload) != cap(reply.Payload) {
			t.Fatalf("%s: EncodePayload filled %d bytes (cap %d), want the %d of the reference", what, len(reply.Payload), cap(reply.Payload), len(payload))
		}
		if !bytes.Equal(frame(reply), want) {
			t.Fatalf("%s: the frame changed once Payload was filled", what)
		}
	}
	r := rand.New(rand.NewSource(32))
	for i := 0; i < 150; i++ {
		m := genQueryResponse(r)
		m.HopPins = nil
		for range i % 5 {
			m.HopPins = append(m.HopPins, genHopPin(r))
		}
		envID := genString(r)
		check("response", ResponseEnvelope(envID, m), oracleQueryResponse(m))
		m.RequestID = ""
		unstamped := m.Marshal()
		before := bytes.Clone(unstamped)
		for _, n := range []int{0, 1, 127, 128} {
			m.RequestID = string(bytes.Repeat([]byte{'r'}, n))
			check("stamped", StampedResponseEnvelope(envID, m.RequestID, unstamped), oracleQueryResponse(m))
		}
		if !bytes.Equal(unstamped, before) {
			t.Fatalf("message %d: the stamped replies wrote into the bytes they stamp", i)
		}
	}
	check("empty response", ResponseEnvelope("req", &QueryResponse{}), nil)
	check("empty stamped response", StampedResponseEnvelope("req", "", nil), nil)
}

// TestWalkRequestEnvelope: a request whose query is left unencoded
// (RequestEnvelope) writes the frame, and marshals to the bytes, of the
// same request with Payload holding the reference encoding of the query,
// routed or not, for both request types; the empty query's field 4 is
// omitted. EncodePayload then fills Payload with exactly those bytes, in
// one exactly-sized buffer.
func TestWalkRequestEnvelope(t *testing.T) {
	frame := func(env *Envelope) []byte {
		var buf bytes.Buffer
		if err := WriteEnvelope(&buf, 7, env); err != nil {
			t.Fatalf("WriteEnvelope: %v", err)
		}
		return buf.Bytes()
	}
	r := rand.New(rand.NewSource(34))
	for i := 0; i < 150; i++ {
		q := genQuery(r)
		if i == 0 {
			q = &Query{}
		}
		typ := []MsgType{MsgQuery, MsgInvoke}[i%2]
		req, copied := RequestEnvelope(typ, q)
		if copied == q || !reflect.DeepEqual(copied, q) {
			t.Fatalf("query %d: the envelope does not carry a copy of the query", i)
		}
		req.TimeoutNanos, req.Route, req.MaxHops = genUint(r), genRepeated(r, genString), genUint(r)
		filled := *req
		filled.query, filled.Payload = nil, oracleQuery(q)
		want := frame(&filled)
		if !bytes.Equal(frame(req), want) {
			t.Fatalf("query %d: the frame differs from that of the filled envelope", i)
		}
		if !bytes.Equal(req.Marshal(), oracleEnvelope(&filled)) {
			t.Fatalf("query %d: Marshal differs from the reference encoding", i)
		}
		req.EncodePayload()
		if !bytes.Equal(req.Payload, filled.Payload) || len(req.Payload) != cap(req.Payload) {
			t.Fatalf("query %d: EncodePayload filled %d bytes (cap %d), want the %d of the reference", i, len(req.Payload), cap(req.Payload), len(filled.Payload))
		}
		if !bytes.Equal(frame(req), want) {
			t.Fatalf("query %d: the frame changed once Payload was filled", i)
		}
	}
}

// TestCountingEncoderMatchesWriter: a counting encoder advances by exactly
// what a writing encoder appends, at every varint width.
func TestCountingEncoderMatchesWriter(t *testing.T) {
	for _, v := range []uint64{1, 127, 128, 16383, 16384, 1<<35 - 1, 1 << 35, 1<<63 - 1, 1<<64 - 1} {
		var c Encoder
		w := NewEncoder(0)
		for _, e := range []*Encoder{&c, w} {
			e.Uint(300, v)
			e.MessageHeader(1, int(v>>1))
			e.String(2, "s")
		}
		if c.Bytes() != nil || c.Len() != w.Len() {
			t.Fatalf("v=%d: counted %d bytes, wrote %d", v, c.Len(), w.Len())
		}
	}
}

// TestCodecAllocations is the allocation tripwire of the response path:
// each encoding is one exactly-sized allocation, nested messages included,
// a warm frame write none (its buffer is pooled), a reply's unencoded
// response and a request's unencoded query included, and a decoded envelope allocates only itself (its
// payload aliases the frame) plus a copy of its request ID. The other
// decode rows pin what a decode costs: the message, each per-request
// string (an ID; a name is interned, see TestDecodedNames), and each
// repeated field's slice, sized once for all its elements (the rows were
// 6, 4 and 6 while each growth of such a slice allocated).
func TestCodecAllocations(t *testing.T) {
	att := Attestation{
		PeerName: "peer0", OrgID: "carrier-org", CertPEM: make([]byte, 700), EncryptedMetadata: make([]byte, 300),
		Signature: make([]byte, 72), SessionEphemeral: make([]byte, 65), SessionGeneration: 3,
	}
	pin := HopPin{Network: "hub-1-net", CertPEM: make([]byte, 700), Pin: make([]byte, 32), Signature: make([]byte, 72)}
	resp := &QueryResponse{
		RequestID: "req-000017", EncryptedResult: make([]byte, 400), PolicyDigest: make([]byte, 32),
		SessionEphemeral: make([]byte, 65), SessionGeneration: 3,
		Attestations: []Attestation{att, att}, HopPins: []HopPin{pin, pin},
	}
	env := &Envelope{Version: ProtocolVersion, Type: MsgQueryResponse, Payload: resp.Marshal(),
		TimeoutNanos: 30_000_000_000}
	withID := *env
	withID.RequestID = "req-000017"
	encoded, encodedWithID := env.Marshal(), withID.Marshal()
	idless := *resp
	idless.RequestID = ""
	reply := ResponseEnvelope("req-000017", resp)
	stamped := StampedResponseEnvelope("req-000017", "req-000017", idless.Marshal())
	q := &Query{
		RequestID: "req-000017", RequestingNetwork: "we-trade", TargetNetwork: "tradelens", Ledger: "tradelens",
		Contract: "trade", Function: "GetBillOfLading", Args: [][]byte{[]byte("po-1001"), []byte("v2")},
		PolicyExpr: "AND('seller-org','carrier-org')", RequesterCertPEM: make([]byte, 700), RequesterOrg: "buyer-bank",
		Nonce: make([]byte, 16), PolicyDigest: make([]byte, 32),
	}
	query := q.Marshal()
	request, _ := RequestEnvelope(MsgQuery, q)
	config := (&NetworkConfig{NetworkID: "tradelens", Platform: "fabric", Orgs: []OrgConfig{
		{OrgID: "seller-org", RootCertPEM: make([]byte, 600), PeerNames: []string{"peer0"}},
		{OrgID: "carrier-org", RootCertPEM: make([]byte, 600), PeerNames: []string{"peer0", "peer1"}},
	}}).Marshal()
	encodedResp := resp.Marshal()

	for _, c := range []struct {
		name string
		want float64
		run  func()
	}{
		{"QueryResponse.Marshal", 1, func() { _ = resp.Marshal() }},
		{"WriteEnvelope", 0, func() { _ = WriteEnvelope(io.Discard, 1, env) }},
		{"WriteEnvelope of ResponseEnvelope", 0, func() { _ = WriteEnvelope(io.Discard, 1, reply) }},
		{"WriteEnvelope of StampedResponseEnvelope", 0, func() { _ = WriteEnvelope(io.Discard, 1, stamped) }},
		{"WriteEnvelope of RequestEnvelope", 0, func() { _ = WriteEnvelope(io.Discard, 1, request) }},
		{"UnmarshalEnvelope", 1, func() { _, _ = UnmarshalEnvelope(encoded) }},
		{"UnmarshalEnvelope with RequestID", 2, func() { _, _ = UnmarshalEnvelope(encodedWithID) }},
		{"UnmarshalQueryResponse", 4, func() { _, _ = UnmarshalQueryResponse(encodedResp) }},
		{"UnmarshalQuery", 3, func() { _, _ = UnmarshalQuery(query) }},
		{"UnmarshalNetworkConfig", 4, func() { _, _ = UnmarshalNetworkConfig(config) }},
	} {
		if c.want == 0 && raceEnabled {
			continue // the pooled frame buffer: the race detector drops pooled items
		}
		if got := testing.AllocsPerRun(100, c.run); got != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.want)
		}
	}
}
