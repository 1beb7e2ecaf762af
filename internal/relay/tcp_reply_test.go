package relay

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/wire"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// checkReplyFrame holds the frame a TCPServer writes for reply, whose
// response the frame writer encodes in place, to the frame of the same
// reply with Payload filled. The payload must be a canonical response
// encoding (decoding and re-encoding it is a fixed point) carrying wantID
// and wantPins hop pins. It returns the frame.
func checkReplyFrame(t *testing.T, what string, reply *wire.Envelope, wantID string, wantPins int) []byte {
	t.Helper()
	frame := func() []byte {
		var buf bytes.Buffer
		if err := wire.WriteEnvelope(&buf, 9, reply); err != nil {
			t.Fatalf("%s: WriteEnvelope: %v", what, err)
		}
		return buf.Bytes()
	}
	if reply.Type != wire.MsgQueryResponse {
		t.Fatalf("%s: reply type %s: %s", what, reply.Type, reply.Payload)
	}
	unencoded := frame()
	reply.EncodePayload()
	if filled := frame(); !bytes.Equal(unencoded, filled) {
		t.Fatalf("%s: the frame written from the unencoded response differs from the filled envelope's", what)
	}
	resp, err := wire.UnmarshalQueryResponse(bytes.Clone(reply.Payload))
	if err != nil {
		t.Fatalf("%s: decode: %v", what, err)
	}
	if !bytes.Equal(resp.Marshal(), reply.Payload) {
		t.Fatalf("%s: the payload is not the response's encoding", what)
	}
	if resp.RequestID != wantID || len(resp.HopPins) != wantPins {
		t.Fatalf("%s: request ID %q with %d pins, want %q with %d", what, resp.RequestID, len(resp.HopPins), wantID, wantPins)
	}
	return unencoded
}

// TestTCPReplyFrameEqualsFilledEnvelope: every kind of reply a relay
// serves goes out as the frame of the same reply with its Payload encoded
// first — a hub's forward with 0–4 hop pins, a cache hit, a fresh build,
// an invoke, its ledger replay and an error reply. A cache hit's frame is
// also the fresh build's, byte for byte.
func TestTCPReplyFrameEqualsFilledEnvelope(t *testing.T) {
	ctx := context.Background()
	for hubs := 0; hubs <= 4; hubs++ {
		chain := buildForwardChain(t, hubs)
		first := chain.source
		if hubs > 0 {
			first = chain.hubs[0]
		}
		for _, typ := range []wire.MsgType{wire.MsgQuery, wire.MsgInvoke} {
			q := forwardQuerySpec(fmt.Sprintf("reply-%s-%d", typ, hubs))
			env := &wire.Envelope{Version: wire.ProtocolVersion, Type: typ, RequestID: q.RequestID,
				Payload: q.Marshal(), Route: []string{"we-trade"}, MaxHops: 8}
			checkReplyFrame(t, fmt.Sprintf("%s over %d hubs", typ, hubs), first.handle(ctx, env), q.RequestID, hubs)
			if typ == wire.MsgInvoke {
				checkReplyFrame(t, fmt.Sprintf("invoke replay over %d hubs", hubs), first.handle(ctx, env), q.RequestID, hubs)
			}
		}
	}

	src, req := newCacheEnv(t)
	q := newQuery(t, req)
	q.RequestID = "req-fresh-then-hit"
	env := &wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgQuery, RequestID: "env-id", Payload: q.Marshal()}
	fresh := checkReplyFrame(t, "fresh build", src.relay.handle(ctx, env), q.RequestID, 0)
	hit := checkReplyFrame(t, "cache hit", src.relay.handle(ctx, env), q.RequestID, 0)
	if s := src.relay.Stats(); s.AttestationCacheHits != 1 || s.AttestationCacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", s.AttestationCacheHits, s.AttestationCacheMisses)
	}
	if !bytes.Equal(fresh, hit) {
		t.Fatal("a cache hit's frame differs from the fresh build's")
	}
	q.Ledger = "no-such-ledger"
	env.Payload = q.Marshal()
	checkReplyFrame(t, "error reply", src.relay.handle(ctx, env), q.RequestID, 0)
}

// recordFrames listens on a local address that reads request frames,
// hands each one's payload to the returned channel and refuses the request
// with an error reply, so the sender's call returns.
func recordFrames(t *testing.T) (addr string, frames <-chan []byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	out := make(chan []byte, 8)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					tag, payload, err := wire.ReadFrame(r)
					if err != nil {
						return
					}
					out <- payload
					refusal := &wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgError, Payload: []byte("recorded")}
					if err := wire.WriteEnvelope(conn, tag, refusal); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), out
}

// TestTCPRequestFrameEqualsFilledEnvelope: an origin's request leaves with
// its query unencoded, and the frame the transport writes carries exactly
// the envelope the origin would have sent with Payload filled — for a
// direct query, an invoke, a traced query and a via leg, which opens the
// route and stamps the hop TTL. Then, for a query a source serves, the
// unencoded envelope and the filled one marshal to the same bytes, and
// HandleEnvelope answers both with the same reply.
func TestTCPRequestFrameEqualsFilledEnvelope(t *testing.T) {
	addr, frames := recordFrames(t)
	tcp := &TCPTransport{}
	t.Cleanup(tcp.Close)
	directReg := NewStaticRegistry()
	directReg.Register("src-net", addr)
	direct := New("we-trade", directReg, tcp)
	viaReg := NewStaticRegistry()
	viaReg.Register("hub-1-net", addr)
	routes := NewRouteTable()
	routes.Set("src-net", "hub-1-net")
	via := New("we-trade", viaReg, tcp)
	via.SetRoutes(routes)

	ctx := context.Background()
	traced := trace.NewContext(ctx, trace.New("trace-request", "we-trade"))
	for _, c := range []struct {
		name   string
		origin *Relay
		ctx    context.Context
		typ    wire.MsgType
		want   wire.Envelope // all but Payload
	}{
		{"direct query", direct, ctx, wire.MsgQuery, wire.Envelope{}},
		{"invoke", direct, ctx, wire.MsgInvoke, wire.Envelope{}},
		{"traced query", direct, traced, wire.MsgQuery, wire.Envelope{Trace: &wire.Trace{ID: "trace-request"}}},
		{"via leg", via, ctx, wire.MsgQuery, wire.Envelope{Route: []string{"we-trade"}, MaxHops: routes.MaxHops()}},
	} {
		q := forwardQuerySpec("req-" + strings.ReplaceAll(c.name, " ", "-"))
		q.Args = [][]byte{[]byte("po-1001"), nil}
		send := c.origin.Query
		if c.typ == wire.MsgInvoke {
			send = c.origin.Invoke
		}
		if _, err := send(c.ctx, q); !errors.As(err, new(remoteRefusal)) {
			t.Fatalf("%s: %v, want the recorder's refusal", c.name, err)
		}
		filled := c.want
		filled.Version, filled.Type, filled.RequestID, filled.Payload = wire.ProtocolVersion, c.typ, q.RequestID, q.Marshal()
		if got := <-frames; !bytes.Equal(got, filled.Marshal()) {
			t.Fatalf("%s: the request frame differs from that of the envelope with Payload filled", c.name)
		}
	}

	src, req := newCacheEnv(t)
	q := newQuery(t, req)
	q.RequestID = "req-handled"
	unencoded, _ := wire.RequestEnvelope(wire.MsgQuery, q)
	filled := &wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgQuery, RequestID: q.RequestID, Payload: q.Marshal()}
	if !bytes.Equal(unencoded.Marshal(), filled.Marshal()) {
		t.Fatal("Marshal of the unencoded request differs from that of the filled one")
	}
	first, second := src.relay.HandleEnvelope(ctx, unencoded), src.relay.HandleEnvelope(ctx, filled)
	if !bytes.Equal(unencoded.Payload, filled.Payload) {
		t.Fatal("HandleEnvelope filled a Payload other than the query's encoding")
	}
	if resp, err := wire.UnmarshalQueryResponse(first.Payload); first.Type != wire.MsgQueryResponse || err != nil || resp.Error != "" {
		t.Fatalf("the unencoded request was not served: %s %q, %v", first.Type, first.Payload, err)
	}
	if !bytes.Equal(first.Marshal(), second.Marshal()) {
		t.Fatal("HandleEnvelope answered the unencoded request and the filled one differently")
	}
}

// fixedDriver serves one shared encoding for every query, as the
// attestation cache serves its entry on a hit.
type fixedDriver struct{ raw []byte }

func (d fixedDriver) Platform() string { return "test" }

func (d fixedDriver) ServeQuery(context.Context, *wire.Query) ([]byte, error) { return d.raw, nil }

// fixedTransport answers every Send with one reply envelope.
type fixedTransport struct{ reply *wire.Envelope }

func (f fixedTransport) Send(context.Context, string, *wire.Envelope) (*wire.Envelope, error) {
	return f.reply, nil
}

// TestTCPServedReplyBytesIndependentOfResultSize is the tripwire of the
// reply path: over a real TCPServer, what the server allocates per reply
// does not grow with the response it serves, because the response is
// encoded once, into the recycled frame. It fails if a relay encodes the
// response into a buffer of its own before the frame: that is a copy of
// it per reply. Two replies: a cache hit (the driver serves a shared
// entry, as the attestation cache does) and a hub's forward (it decodes
// the downstream reply, which aliases its frame, checks and extends the
// hop chain, and sends the response on). The client reads the replies
// into one buffer, so the process allocates only what the server does.
// The large result is 56 KiB, the largest whose frame stays under the
// 64 KiB bound on pooled frames; a larger frame is allocated for its one
// write by design. Skipped under -race, which drops pooled frames.
func TestTCPServedReplyBytesIndependentOfResultSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled frames")
	}
	const small, large = 1 << 10, 56 << 10
	resp := func(n int) *wire.QueryResponse {
		return &wire.QueryResponse{
			EncryptedResult: bytes.Repeat([]byte{'r'}, n), PolicyDigest: make([]byte, 32), SessionEphemeral: make([]byte, 65),
			Attestations: []wire.Attestation{{PeerName: "peer0", OrgID: "carrier-org", CertPEM: make([]byte, 700),
				EncryptedMetadata: make([]byte, 300), Signature: make([]byte, 72), SessionEphemeral: make([]byte, 65)}},
		}
	}
	cacheHit := func(n int) *Relay {
		r := New("src-net", NewStaticRegistry(), fixedTransport{})
		r.RegisterDriver("src-net", fixedDriver{raw: resp(n).Marshal()})
		return r
	}
	hubForward := func(n int) *Relay {
		reg := NewStaticRegistry()
		reg.Register("src-net", "src:1")
		downstream := &wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgQueryResponse, Payload: resp(n).Marshal()}
		r := New("hub-1-net", reg, fixedTransport{reply: downstream})
		r.EnableForwarding(NewRouteTable(), hubIdentity(t, 1))
		return r
	}
	for _, c := range []struct {
		name  string
		relay func(n int) *Relay
	}{{"cache hit", cacheHit}, {"hub forward", hubForward}} {
		perReply := func(n int) uint64 {
			server, err := NewTCPServer(c.relay(n), "127.0.0.1:0")
			if err != nil {
				t.Fatalf("NewTCPServer: %v", err)
			}
			defer server.Close()
			return servedReplyBytes(t, server.Addr(), n)
		}
		smallBytes, largeBytes := perReply(small), perReply(large)
		t.Logf("%s: %d B allocated per reply at a %d KiB result, %d B at %d KiB", c.name, smallBytes, small>>10, largeBytes, large>>10)
		if grew := int64(largeBytes) - int64(smallBytes); grew > (large-small)/16 {
			t.Errorf("%s: a reply allocates %d B more at a %d KiB result than at %d KiB: the response is copied per reply", c.name, grew, large>>10, small>>10)
		}
	}
}

// servedReplyBytes sends query frames to addr one at a time and returns
// the bytes the process allocated per reply, over 500 warm replies.
func servedReplyBytes(t *testing.T, addr string, resultSize int) uint64 {
	t.Helper()
	q := forwardQuerySpec("req-tripwire")
	var request bytes.Buffer
	if err := wire.WriteEnvelope(&request, 1, &wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgQuery,
		RequestID: q.RequestID, Payload: q.Marshal()}); err != nil {
		t.Fatalf("WriteEnvelope: %v", err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	hdr, payload := make([]byte, 12), make([]byte, 2*resultSize+64<<10)
	roundTrip := func() {
		if _, err := conn.Write(request.Bytes()); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if _, err := io.ReadFull(conn, hdr); err != nil {
			t.Fatalf("read reply header: %v", err)
		}
		n := int(binary.BigEndian.Uint32(hdr) &^ (1 << 31))
		if _, err := io.ReadFull(conn, payload[:n]); err != nil {
			t.Fatalf("read reply: %v", err)
		}
		if n < resultSize {
			t.Fatalf("a %d B reply cannot carry the %d B result: %q", n, resultSize, payload[:min(n, 200)])
		}
	}
	for range 50 {
		roundTrip()
	}
	const replies = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range replies {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / replies
}
