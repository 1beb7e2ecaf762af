package wire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"unsafe"

	"repro/internal/cryptoutil"
)

// ProtocolVersion identifies the relay protocol revision. A relay rejects
// envelopes from a newer major version.
const ProtocolVersion = 1

// MsgType discriminates envelope payloads exchanged between relays.
type MsgType int

const (
	// MsgQuery carries a Query from a destination relay to a source relay.
	MsgQuery MsgType = iota + 1
	// MsgQueryResponse carries a QueryResponse back.
	MsgQueryResponse
	// MsgError carries an error string for a failed request.
	MsgError
	// MsgPing and MsgPong implement relay liveness probing.
	MsgPing
	MsgPong
	// MsgEvent carries an asynchronous event notification from a source
	// relay to a subscribed destination relay (paper §7 future work:
	// cross-network events).
	MsgEvent
	// MsgSubscribe registers an event subscription with a source relay.
	MsgSubscribe
	// MsgInvoke carries a cross-network transaction request (paper §5:
	// the query protocol extended to chaincode invocations).
	MsgInvoke
)

// String returns the message type name.
func (t MsgType) String() string {
	switch t {
	case MsgQuery:
		return "query"
	case MsgQueryResponse:
		return "query-response"
	case MsgError:
		return "error"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgEvent:
		return "event"
	case MsgSubscribe:
		return "subscribe"
	case MsgInvoke:
		return "invoke"
	default:
		return fmt.Sprintf("msgtype(%d)", int(t))
	}
}

// Envelope is the outermost frame exchanged between relays: a message type,
// a correlation ID and a typed payload.
type Envelope struct {
	Version   uint64
	Type      MsgType
	RequestID string
	Payload   []byte
	// TimeoutNanos is the requester's remaining time budget, relative: the
	// time left at the instant the sender stamped the envelope
	// (gRPC-style), zero when unbounded. The receiving relay serves under
	// that budget from arrival on its own clock, so the budget travels with
	// the request instead of resetting at every hop, and clock skew between
	// relays costs only the one-way transit time. A bounded sender stamps at
	// least 1 ns, so a spent budget is never read as unbounded. Field 5, an
	// absolute deadline, is retired: no field may reuse its number.
	TimeoutNanos uint64
	// Route lists the network IDs of the relays this envelope has already
	// traversed, origin first. A relay appends its own network before
	// forwarding, and refuses to forward an envelope whose route already
	// names it — cycles are rejected structurally, without inspecting the
	// route table that produced them. Empty on single-hop requests, which
	// keeps their encoding byte-identical to older relays.
	Route []string
	// MaxHops bounds the walk: the maximum number of relay-to-relay
	// transport legs this envelope may make, stamped by the origin when it
	// routes via a table. A forwarder refuses when the next leg would
	// exceed it. Zero means the forwarder's own default applies.
	MaxHops uint64
	// Trace is set on a traced request and its reply, nil otherwise, which
	// keeps an untraced envelope's encoding byte-identical to one from
	// before tracing (and its struct one pointer larger, not two fields).
	Trace *Trace

	// response and query are a payload not yet encoded, at most one of
	// them set: response a reply's, built by ResponseEnvelope or
	// StampedResponseEnvelope, query a request's, built by RequestEnvelope.
	// Payload stays empty, and every encoding of the envelope writes field
	// 4 straight from the one that is set; EncodePayload fills Payload from
	// it instead.
	response *responseBody
	query    *Query
}

// Marshal encodes the envelope.
func (m *Envelope) Marshal() []byte { w := Writing(m.size()); m.walk(&w); return w.Encoded() }

func (m *Envelope) size() int { var c Walk; m.walk(&c); return c.Len() }

func (m *Envelope) walk(w *Walk) {
	w.Uint(1, &m.Version)
	typ := uint64(m.Type)
	w.Uint(2, &typ)
	m.Type = MsgType(typ)
	w.String(3, &m.RequestID)
	switch { // Bytes omits an empty payload, and so do the unencoded ones
	case m.query != nil:
		if n := m.query.size(); n > 0 {
			w.MessageHeader(4, n)
			m.query.walk(w)
		}
	case m.response != nil:
		if n := m.response.size(); n > 0 {
			w.MessageHeader(4, n)
			m.response.walk(w)
		}
	default:
		w.Bytes(4, &m.Payload)
	}
	w.Uint(6, &m.TimeoutNanos)
	w.Strings(7, &m.Route)
	w.Uint(8, &m.MaxHops)
	if m.Trace == nil && w.decoding && !w.taken && (w.field == 9 || w.field == 10) {
		m.Trace = &Trace{}
	}
	if m.Trace != nil {
		m.Trace.walk(w)
	}
}

// UnmarshalEnvelope decodes an Envelope.
func UnmarshalEnvelope(buf []byte) (*Envelope, error) {
	m, w := &Envelope{}, Decoding(buf)
	for w.Next() {
		m.walk(&w)
	}
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("envelope: %w", err)
	}
	return m, nil
}

// RequestEnvelope returns the envelope of type msgType, MsgQuery or
// MsgInvoke, that carries a copy of q under q's RequestID, and the copy,
// allocated together: a request is one allocation. The copy is encoded only
// when the envelope is — by WriteEnvelope straight into the frame, by
// Marshal or by EncodePayload — and it must not change until then.
func RequestEnvelope(msgType MsgType, q *Query) (*Envelope, *Query) {
	r := &struct {
		env Envelope
		q   Query
	}{q: *q}
	r.env = Envelope{Version: ProtocolVersion, Type: msgType, RequestID: q.RequestID, query: &r.q}
	return &r.env, &r.q
}

// ResponseEnvelope returns the MsgQueryResponse envelope that carries resp
// back under requestID. resp is encoded only when the envelope is — by
// WriteEnvelope straight into the frame, by Marshal or by EncodePayload —
// and it must not change until then.
func ResponseEnvelope(requestID string, resp *QueryResponse) *Envelope {
	return newReply(requestID, responseBody{resp: resp})
}

// StampedResponseEnvelope is ResponseEnvelope for a response held as
// unstamped, its encoding without a RequestID, which the envelope's
// encodings stamp with responseID. unstamped is only read, so it may be
// shared: an attestation-cache entry is served this way without a copy.
func StampedResponseEnvelope(requestID, responseID string, unstamped []byte) *Envelope {
	return newReply(requestID, responseBody{id: responseID, unstamped: unstamped})
}

// newReply returns the MsgQueryResponse envelope carrying body under
// requestID, allocated together with it: a reply is one allocation.
func newReply(requestID string, body responseBody) *Envelope {
	r := &struct {
		env  Envelope
		body responseBody
	}{body: body}
	r.env = Envelope{Version: ProtocolVersion, Type: MsgQueryResponse, RequestID: requestID, response: &r.body}
	return &r.env
}

// EncodePayload fills Payload from a request's unencoded query or a
// reply's unencoded response, in one exactly-sized allocation, so the
// envelope reads as a decoded one does. An envelope whose Payload is
// already encoded is left as it is.
func (m *Envelope) EncodePayload() {
	switch {
	case m.query != nil:
		m.Payload, m.query = m.query.Marshal(), nil
	case m.response != nil:
		w := Writing(m.response.size())
		m.response.walk(&w)
		m.Payload, m.response = w.Encoded(), nil
	}
}

// responseBody is a QueryResponse payload not yet encoded: resp, or else
// unstamped behind the ID id. Field 1 is the first field a response's walk
// writes, so id's field followed by unstamped is exactly the encoding of
// the response with RequestID id.
type responseBody struct {
	resp      *QueryResponse
	id        string
	unstamped []byte
}

func (b *responseBody) size() int { var c Walk; b.walk(&c); return c.Len() }

// walk encodes the body; it has no decoding mode.
func (b *responseBody) walk(w *Walk) {
	if b.resp != nil {
		b.resp.walk(w)
		return
	}
	w.String(1, &b.id)
	put(&w.e, b.unstamped)
}

// RouteContains reports whether the envelope's route already names the
// given network.
func (m *Envelope) RouteContains(network string) bool {
	for _, hop := range m.Route {
		if hop == network {
			return true
		}
	}
	return false
}

// Query is the cross-network data request (Fig. 2 step 1): it addresses a
// network, ledger, contract and function, carries the requester's
// authentication certificate and nonce, and states the verification policy
// the source network must satisfy when assembling the proof. Every query
// gets the same proof envelope: sessioned ECIES to the requester's
// certificate key, signed per query or, when the query shares a batching
// window with others, per window.
type Query struct {
	RequestID         string
	RequestingNetwork string // destination network issuing the query
	TargetNetwork     string // source network holding the data
	Ledger            string
	Contract          string
	Function          string
	Args              [][]byte
	PolicyExpr        string // verification policy, e.g. AND('seller-org','carrier-org')
	RequesterCertPEM  []byte // client certificate for auth + result encryption
	RequesterOrg      string
	Nonce             []byte // replay protection, echoed in signed metadata
	// PolicyDigest pins the verification policy at request time: the digest
	// of the exact policy expression the requester resolved (see
	// proof.PolicyDigest). The source relay refuses a query whose expression
	// does not match its pin, the proof it builds carries the pin, and the
	// requester refuses a response built under any other pin — so requester
	// and responder agree on exactly which policy the proof must satisfy.
	// When empty, the source pins the digest of PolicyExpr.
	PolicyDigest []byte
	// Fields 13 and 14 are reserved. They carried the requester's batching
	// and sessioned-envelope capability bits while the proof envelope was
	// negotiated; decoders now skip them, so a query that still sends them
	// decodes as one that does not.
}

// InteropKey derives the ledger-level exactly-once identity of this
// request: the requester's network and certificate digest bound to the
// request ID, so one requester cannot occupy or poison another's ID space
// (request IDs travel in plaintext). It is committed with the transaction
// on the source ledger, which is what lets any relay fronting the same
// network — the one that submitted it, a restarted one or a sibling —
// recognise a request that already committed. Empty when the
// query carries no request ID — such requests have no exactly-once
// identity.
//
// The key is built in one allocation, its exact length.
func (m *Query) InteropKey() string {
	if m.RequestID == "" {
		return ""
	}
	var certHex [2 * cryptoutil.DigestSize]byte
	parts := m.interopKeyParts(&certHex)
	key := bytes.Join(parts[:], nil)
	return unsafe.String(unsafe.SliceData(key), len(key))
}

// InteropKeySum returns the SHA-256 digest of InteropKey for a query that
// carries a request ID. It hashes the key's parts as they stand, so it
// builds no key and allocates nothing.
func (m *Query) InteropKeySum() [cryptoutil.DigestSize]byte {
	var certHex [2 * cryptoutil.DigestSize]byte
	parts := m.interopKeyParts(&certHex)
	return cryptoutil.Sum(parts[:]...)
}

// interopKeySep separates the parts of an interop key.
var interopKeySep = []byte{0}

// interopKeyParts returns the parts an interop key joins, in order: the
// requesting network, the hex of the requester certificate's digest,
// written to certHex, and the request ID, separated by U+0000. The string
// parts are read-only views of the query's fields, for reading only.
func (m *Query) interopKeyParts(certHex *[2 * cryptoutil.DigestSize]byte) [5][]byte {
	sum := cryptoutil.Sum(m.RequesterCertPEM)
	hex.Encode(certHex[:], sum[:])
	return [5][]byte{
		unsafe.Slice(unsafe.StringData(m.RequestingNetwork), len(m.RequestingNetwork)),
		interopKeySep,
		certHex[:],
		interopKeySep,
		unsafe.Slice(unsafe.StringData(m.RequestID), len(m.RequestID)),
	}
}

// Marshal encodes the query.
func (m *Query) Marshal() []byte { w := Writing(m.size()); m.walk(&w); return w.Encoded() }

func (m *Query) size() int { var c Walk; m.walk(&c); return c.Len() }

func (m *Query) walk(w *Walk) {
	w.String(1, &m.RequestID)
	w.Name(2, &m.RequestingNetwork)
	w.Name(3, &m.TargetNetwork)
	w.Name(4, &m.Ledger)
	w.Name(5, &m.Contract)
	w.Name(6, &m.Function)
	w.BytesList(7, &m.Args)
	w.Name(8, &m.PolicyExpr)
	w.Bytes(9, &m.RequesterCertPEM)
	w.Name(10, &m.RequesterOrg)
	w.Bytes(11, &m.Nonce)
	w.Bytes(12, &m.PolicyDigest)
}

// UnmarshalQuery decodes a Query.
func UnmarshalQuery(buf []byte) (*Query, error) {
	m, w := &Query{}, Decoding(buf)
	for w.Next() {
		m.walk(&w)
	}
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	return m, nil
}

// Attestation is one peer's contribution to a proof (Fig. 2 step 7): the
// peer signs the response metadata and encrypts the metadata so only the
// requesting client can read (and therefore use) it. The tuple mirrors the
// paper's <encrypted metadata, signature> proof element.
type Attestation struct {
	PeerName          string
	OrgID             string
	CertPEM           []byte // attestor certificate, validated against recorded config
	EncryptedMetadata []byte // sessioned ECIES to the requester; plaintext is a Metadata message
	Signature         []byte // ECDSA over the domain-separated Merkle root payload
	// The attestor signed the root of a Merkle tree over BatchSize leaf
	// hashes, one per query in the window. BatchIndex names this query's
	// leaf position, and BatchPath carries the sibling hashes of the RFC
	// 6962 inclusion proof from that leaf to the signed root. A query built
	// alone is a one-leaf tree: size 1, index 0, an empty path.
	BatchSize  uint64
	BatchIndex uint64
	BatchPath  [][]byte
	// SessionEphemeral and SessionGeneration open the sessioned ECIES
	// envelope: EncryptedMetadata is nonce||ciphertext under a per-query
	// AEAD key derived from the ECDH agreement between the requester's key
	// and this session ephemeral point, bound to SessionGeneration and the
	// query digest ((*cryptoutil.Recipient).Open).
	SessionEphemeral  []byte
	SessionGeneration uint64
}

// Marshal encodes the attestation.
func (m *Attestation) Marshal() []byte { w := Writing(m.size()); m.walk(&w); return w.Encoded() }

func (m *Attestation) size() int { var c Walk; m.walk(&c); return c.Len() }

func (m *Attestation) walk(w *Walk) {
	w.Name(1, &m.PeerName)
	w.Name(2, &m.OrgID)
	w.Bytes(3, &m.CertPEM)
	w.Bytes(4, &m.EncryptedMetadata)
	w.Bytes(5, &m.Signature)
	w.Uint(6, &m.BatchSize)
	w.Uint(7, &m.BatchIndex)
	w.BytesList(8, &m.BatchPath)
	w.Bytes(9, &m.SessionEphemeral)
	w.Uint(10, &m.SessionGeneration)
}

// UnmarshalAttestation decodes an Attestation.
func UnmarshalAttestation(buf []byte) (*Attestation, error) {
	m, w := &Attestation{}, Decoding(buf)
	for w.Next() {
		m.walk(&w)
	}
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("attestation: %w", err)
	}
	return m, nil
}

// Metadata is the plaintext signed by each attesting peer. It binds the
// query (so a proof cannot be replayed for a different question), the
// result digest (so the result cannot be swapped), the client nonce (replay
// protection) and the attestor identity.
type Metadata struct {
	NetworkID    string
	PeerName     string
	OrgID        string
	QueryDigest  []byte
	ResultDigest []byte
	Nonce        []byte
	UnixNano     uint64
	// PolicyDigest is the verification-policy pin the attestor was selected
	// under (proof.PolicyDigest of the query's policy expression). Being
	// inside the signed metadata, the pin itself is attested: a relay cannot
	// re-label a proof as satisfying a different policy. Metadata without
	// a pin is refused by proof.OpenResponse and proof.Verify.
	PolicyDigest []byte
}

// Marshal encodes the metadata.
func (m *Metadata) Marshal() []byte { return m.AppendMarshal(make([]byte, 0, m.Size())) }

// Size returns the length of the metadata's encoding.
func (m *Metadata) Size() int { return m.size() }

// AppendMarshal appends the metadata's encoding to b, in place when b has
// Size bytes of capacity to spare.
func (m *Metadata) AppendMarshal(b []byte) []byte {
	w := Walk{e: Encoder{buf: b}}
	m.walk(&w)
	return w.Encoded()
}

func (m *Metadata) size() int { var c Walk; m.walk(&c); return c.Len() }

func (m *Metadata) walk(w *Walk) {
	w.Name(1, &m.NetworkID)
	w.Name(2, &m.PeerName)
	w.Name(3, &m.OrgID)
	w.Bytes(4, &m.QueryDigest)
	w.Bytes(5, &m.ResultDigest)
	w.Bytes(6, &m.Nonce)
	w.Uint(7, &m.UnixNano)
	w.Bytes(8, &m.PolicyDigest)
}

// UnmarshalMetadata decodes a Metadata. It is small enough to inline, so
// a caller that only reads the fields, as proof.OpenResponse and
// proof.Verify do for each attestor, keeps the Metadata on its stack.
func UnmarshalMetadata(buf []byte) (*Metadata, error) {
	m := &Metadata{}
	if err := m.decode(buf); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *Metadata) decode(buf []byte) error {
	w := Decoding(buf)
	for w.Next() {
		m.walk(&w)
	}
	if err := w.Err(); err != nil {
		return fmt.Errorf("metadata: %w", err)
	}
	return nil
}

// HopPin is one forwarding relay's contribution to the chained path proof
// of a multi-hop response. Each relay that forwarded the query signs the
// digest chain linking its predecessor's pin (or the response anchor, for
// the hop adjacent to the source) to its own identity, so the origin can
// authenticate the whole path, not just the source attestation. Pins are
// appended on the return path: index 0 is the hop nearest the source.
type HopPin struct {
	Network   string // network ID of the forwarding relay
	CertPEM   []byte // forwarding relay's certificate
	Pin       []byte // digest of the domain-separated chain payload
	Signature []byte // ECDSA by the relay's key over the chain payload
}

// Marshal encodes the hop pin.
func (m *HopPin) Marshal() []byte { w := Writing(m.size()); m.walk(&w); return w.Encoded() }

func (m *HopPin) size() int { var c Walk; m.walk(&c); return c.Len() }

func (m *HopPin) walk(w *Walk) {
	w.Name(1, &m.Network)
	w.Bytes(2, &m.CertPEM)
	w.Bytes(3, &m.Pin)
	w.Bytes(4, &m.Signature)
}

// UnmarshalHopPin decodes a HopPin.
func UnmarshalHopPin(buf []byte) (*HopPin, error) {
	m, w := &HopPin{}, Decoding(buf)
	for w.Next() {
		m.walk(&w)
	}
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("hop pin: %w", err)
	}
	return m, nil
}

// QueryResponse carries the encrypted result plus the proof: one attestation
// per peer selected to satisfy the verification policy (Fig. 2 step 8).
type QueryResponse struct {
	RequestID       string
	EncryptedResult []byte
	Attestations    []Attestation
	Error           string
	// PolicyDigest echoes the verification-policy pin the proof was built
	// under. The requester refuses a response whose pin is missing or
	// differs from the one it stamped on the query.
	PolicyDigest []byte
	// SessionEphemeral and SessionGeneration open EncryptedResult, a
	// sessioned ECIES envelope under the relay's result session (same
	// layout and derivation as Attestation.SessionEphemeral).
	SessionEphemeral  []byte
	SessionGeneration uint64
	// HopPins carries the chained path proof of a multi-hop response: one
	// pin per forwarding relay, appended on the return path (index 0 is
	// the hop adjacent to the source network). Empty on single-hop
	// responses, keeping their encoding byte-identical to older relays.
	HopPins []HopPin
}

// Marshal encodes the response.
func (m *QueryResponse) Marshal() []byte { w := Writing(m.size()); m.walk(&w); return w.Encoded() }

func (m *QueryResponse) size() int { var c Walk; m.walk(&c); return c.Len() }

// Digest returns the SHA-256 of the response's encoding, Marshal, without
// building it: the walk runs in hashing mode.
func (m *QueryResponse) Digest() [cryptoutil.DigestSize]byte {
	w := Hashing(nil)
	m.walk(&w)
	return w.Sum()
}

func (m *QueryResponse) walk(w *Walk) {
	w.String(1, &m.RequestID)
	w.Bytes(2, &m.EncryptedResult)
	if w.Encoding() {
		for i := range m.Attestations {
			a := &m.Attestations[i]
			w.MessageHeader(3, a.size())
			a.walk(w)
		}
	} else if sub, ok := w.Nested(3); ok {
		var a Attestation
		for w.NextIn(&sub) {
			a.walk(&sub)
		}
		m.Attestations = AppendRepeated(w, 3, m.Attestations, a)
	}
	w.String(4, &m.Error)
	w.Bytes(5, &m.PolicyDigest)
	w.Bytes(6, &m.SessionEphemeral)
	w.Uint(7, &m.SessionGeneration)
	if w.Encoding() {
		for i := range m.HopPins {
			p := &m.HopPins[i]
			w.MessageHeader(8, p.size())
			p.walk(w)
		}
	} else if sub, ok := w.Nested(8); ok {
		var p HopPin
		for w.NextIn(&sub) {
			p.walk(&sub)
		}
		m.HopPins = AppendRepeated(w, 8, m.HopPins, p)
	}
}

// UnmarshalQueryResponse decodes a QueryResponse.
func UnmarshalQueryResponse(buf []byte) (*QueryResponse, error) {
	m, w := &QueryResponse{}, Decoding(buf)
	for w.Next() {
		m.walk(&w)
	}
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("query response: %w", err)
	}
	return m, nil
}

// OrgConfig describes one organization of a network in the shared
// configuration schema: its identity root and its peer endpoints.
type OrgConfig struct {
	OrgID       string
	RootCertPEM []byte
	PeerNames   []string
}

// Marshal encodes the org config.
func (m *OrgConfig) Marshal() []byte { w := Writing(m.size()); m.walk(&w); return w.Encoded() }

func (m *OrgConfig) size() int { var c Walk; m.walk(&c); return c.Len() }

func (m *OrgConfig) walk(w *Walk) {
	w.Name(1, &m.OrgID)
	w.Bytes(2, &m.RootCertPEM)
	w.StringsOmitEmpty(3, &m.PeerNames)
}

// UnmarshalOrgConfig decodes an OrgConfig.
func UnmarshalOrgConfig(buf []byte) (*OrgConfig, error) {
	m, w := &OrgConfig{}, Decoding(buf)
	for w.Next() {
		m.walk(&w)
	}
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("org config: %w", err)
	}
	return m, nil
}

// NetworkConfig is the identity and topology information one network records
// about another before interoperating (§3.3: "interoperating networks have a
// priori knowledge of each others' identities and configurations, recorded
// on their ledgers").
type NetworkConfig struct {
	NetworkID string
	Platform  string // e.g. "fabric", "notary"
	Orgs      []OrgConfig
}

// Marshal encodes the network config.
func (m *NetworkConfig) Marshal() []byte { w := Writing(m.size()); m.walk(&w); return w.Encoded() }

func (m *NetworkConfig) size() int { var c Walk; m.walk(&c); return c.Len() }

func (m *NetworkConfig) walk(w *Walk) {
	w.Name(1, &m.NetworkID)
	w.Name(2, &m.Platform)
	if w.Encoding() {
		for i := range m.Orgs {
			o := &m.Orgs[i]
			w.MessageHeader(3, o.size())
			o.walk(w)
		}
	} else if sub, ok := w.Nested(3); ok {
		var o OrgConfig
		for w.NextIn(&sub) {
			o.walk(&sub)
		}
		m.Orgs = AppendRepeated(w, 3, m.Orgs, o)
	}
}

// UnmarshalNetworkConfig decodes a NetworkConfig.
func UnmarshalNetworkConfig(buf []byte) (*NetworkConfig, error) {
	m, w := &NetworkConfig{}, Decoding(buf)
	for w.Next() {
		m.walk(&w)
	}
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("network config: %w", err)
	}
	return m, nil
}

// Event is an asynchronous cross-network notification (extension beyond the
// paper's query protocol; listed as future work in §7).
type Event struct {
	SubscriptionID string
	SourceNetwork  string
	Name           string
	Payload        []byte
	UnixNano       uint64
}

// Marshal encodes the event.
func (m *Event) Marshal() []byte { w := Writing(m.size()); m.walk(&w); return w.Encoded() }

func (m *Event) size() int { var c Walk; m.walk(&c); return c.Len() }

func (m *Event) walk(w *Walk) {
	w.String(1, &m.SubscriptionID)
	w.Name(2, &m.SourceNetwork)
	w.Name(3, &m.Name)
	w.Bytes(4, &m.Payload)
	w.Uint(5, &m.UnixNano)
}

// UnmarshalEvent decodes an Event.
func UnmarshalEvent(buf []byte) (*Event, error) {
	m, w := &Event{}, Decoding(buf)
	for w.Next() {
		m.walk(&w)
	}
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("event: %w", err)
	}
	return m, nil
}

// Subscription asks a source relay to forward chaincode events matching a
// name pattern to the requesting network's relay.
type Subscription struct {
	SubscriptionID    string
	RequestingNetwork string
	TargetNetwork     string
	EventName         string
	RequesterCertPEM  []byte
}

// Marshal encodes the subscription.
func (m *Subscription) Marshal() []byte { w := Writing(m.size()); m.walk(&w); return w.Encoded() }

func (m *Subscription) size() int { var c Walk; m.walk(&c); return c.Len() }

func (m *Subscription) walk(w *Walk) {
	w.String(1, &m.SubscriptionID)
	w.Name(2, &m.RequestingNetwork)
	w.Name(3, &m.TargetNetwork)
	w.Name(4, &m.EventName)
	w.Bytes(5, &m.RequesterCertPEM)
}

// UnmarshalSubscription decodes a Subscription.
func UnmarshalSubscription(buf []byte) (*Subscription, error) {
	m, w := &Subscription{}, Decoding(buf)
	for w.Next() {
		m.walk(&w)
	}
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("subscription: %w", err)
	}
	return m, nil
}
