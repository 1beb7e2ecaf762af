package relay

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/proof"
	"repro/internal/wire"
)

// TestTCPServerGarbageFrame sends a frame that is not a valid envelope; the
// server must reply with an error envelope and keep the connection usable.
func TestTCPServerGarbageFrame(t *testing.T) {
	reg := NewStaticRegistry()
	r := New("net", reg, &TCPTransport{})
	server, err := NewTCPServer(r, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPServer: %v", err)
	}
	defer server.Close()

	conn, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)

	// A tagged frame (tag 41) whose five payload bytes are no envelope.
	garbage := []byte{0x80, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 41, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := conn.Write(garbage); err != nil {
		t.Fatalf("Write: %v", err)
	}
	tag, frame, err := wire.ReadFrame(br)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	env, err := wire.UnmarshalEnvelope(frame)
	if err != nil {
		t.Fatalf("UnmarshalEnvelope: %v", err)
	}
	if tag != 41 || env.Type != wire.MsgError {
		t.Fatalf("reply = tag %d type %v, want tag 41 type %v", tag, env.Type, wire.MsgError)
	}

	// The same connection still serves valid requests.
	ping := &wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgPing, RequestID: "p"}
	if err := wire.WriteEnvelope(conn, 42, ping); err != nil {
		t.Fatalf("WriteEnvelope ping: %v", err)
	}
	tag, frame, err = wire.ReadFrame(br)
	if err != nil {
		t.Fatalf("ReadFrame pong: %v", err)
	}
	env, _ = wire.UnmarshalEnvelope(frame)
	if tag != 42 || env.Type != wire.MsgPong {
		t.Fatalf("reply = tag %d type %v, want tag 42 type %v", tag, env.Type, wire.MsgPong)
	}
}

// TestTCPServerRejectsUntaggedFrame: a peer speaking the bare
// length-prefix framing gets its connection closed at once — not a hang
// while the server waits for header bytes that framing never sends.
func TestTCPServerRejectsUntaggedFrame(t *testing.T) {
	reg := NewStaticRegistry()
	r := New("net", reg, &TCPTransport{})
	server, err := NewTCPServer(r, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPServer: %v", err)
	}
	defer server.Close()

	conn, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	// An empty legacy frame: all four bytes that framing would ever send.
	if _, err := conn.Write([]byte{0x00, 0x00, 0x00, 0x00}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if n, err := conn.Read(make([]byte, 16)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read = %d bytes, %v; want the connection closed by the server", n, err)
	}
}

// TestTCPServerAbruptDisconnect half-writes a frame and disconnects; the
// server must survive and keep serving other clients.
func TestTCPServerAbruptDisconnect(t *testing.T) {
	reg := NewStaticRegistry()
	r := New("net", reg, &TCPTransport{})
	server, err := NewTCPServer(r, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPServer: %v", err)
	}
	defer server.Close()

	conn, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	// Write a header promising 1000 bytes under tag 1, send 3, vanish.
	_, _ = conn.Write([]byte{0x80, 0x00, 0x03, 0xE8, 0, 0, 0, 0, 0, 0, 0, 1, 0x01, 0x02, 0x03})
	conn.Close()

	probe := New("probe", reg, &TCPTransport{})
	if err := probe.Ping(context.Background(), server.Addr()); err != nil {
		t.Fatalf("server wedged after abrupt disconnect: %v", err)
	}
}

// TestStalledMaximalHeadersHoldLittle: what a peer that has sent nothing
// valid makes the server hold. 64 connections each send one frame header
// claiming MaxFrameSize, then stall. The server waits for the payload in
// the connection's read buffer, which a silent peer holds too, and
// allocates for what has arrived, so each peer holds at most 8 KiB of heap,
// both ends of its connection counted, one goroutine and its two
// descriptors. A 64 KiB first payload buffer held ≈ 70 KiB a peer, and
// allocating the claimed length up front held 96 MiB.
func TestStalledMaximalHeadersHoldLittle(t *testing.T) {
	const conns = 64
	server, err := NewTCPServer(New("net", NewStaticRegistry(), &TCPTransport{}), "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPServer: %v", err)
	}
	defer server.Close()

	goroutines, before, fds := runtime.NumGoroutine(), liveHeap(), openFDs()
	hdr := make([]byte, 12)
	binary.BigEndian.PutUint32(hdr[:4], wire.MaxFrameSize|1<<31)
	binary.BigEndian.PutUint64(hdr[4:], 1)
	peers := make([]net.Conn, 0, conns)
	defer func() {
		for _, c := range peers {
			c.Close()
		}
	}()
	for range conns {
		conn, err := net.Dial("tcp", server.Addr())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		peers = append(peers, conn)
		if _, err := conn.Write(hdr); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	// Every connection's reader is parked waiting for its payload.
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if n := bytes.Count(buf[:runtime.Stack(buf, true)], []byte("wire.readPayload(")); n >= conns {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the server did not reach the payload read of %d connections", conns)
		}
	}
	grew, routines := liveHeap()-before, runtime.NumGoroutine()-goroutines
	t.Logf("%d stalled maximal headers hold %d KiB of heap (%d B a peer), %d goroutines and %d descriptors",
		conns, grew>>10, grew/conns, routines, openFDs()-fds)
	if grew > conns*8<<10 {
		t.Errorf("%d stalled headers hold %d B of heap a peer, want ≤ 8 KiB", conns, grew/conns)
	}
	if routines > conns {
		t.Errorf("%d stalled headers hold %d goroutines, want ≤ one a peer", conns, routines)
	}
	if fds >= 0 && openFDs()-fds > 2*conns {
		t.Errorf("%d stalled headers hold %d descriptors, want ≤ two a peer (both ends)", conns, openFDs()-fds)
	}
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestTCPServerConcurrentClients hammers the server with parallel pings
// that all share one transport, so one connection.
func TestTCPServerConcurrentClients(t *testing.T) {
	reg := NewStaticRegistry()
	transport := &TCPTransport{DialTimeout: time.Second, IOTimeout: 5 * time.Second}
	defer transport.Close()
	r := New("net", reg, transport)
	server, err := NewTCPServer(r, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPServer: %v", err)
	}
	defer server.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probe := New("probe", reg, transport)
			for i := 0; i < 25; i++ {
				if err := probe.Ping(context.Background(), server.Addr()); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent ping: %v", err)
	}
}

// TestTCPServerCloseIdempotent double-closes and closes with live
// connections.
func TestTCPServerCloseIdempotent(t *testing.T) {
	reg := NewStaticRegistry()
	r := New("net", reg, &TCPTransport{})
	server, err := NewTCPServer(r, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPServer: %v", err)
	}
	conn, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if err := server.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := server.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The address no longer serves.
	probe := New("probe", reg, &TCPTransport{DialTimeout: 300 * time.Millisecond})
	if err := probe.Ping(context.Background(), server.Addr()); err == nil {
		t.Fatal("closed server still answers")
	}
}

// gateDriver parks every request whose Function is "stall" until release
// is closed or the serving context ends; anything else it answers at once,
// echoing the Function back as the result. Invokes commit to its fake
// ledger.
type gateDriver struct {
	fakeLedger
	entered   chan struct{} // one token per parked request
	cancelled chan struct{} // one token per parked request whose context ended
	release   chan struct{}
	invokes   atomic.Int64
}

func newGateRelay(discovery Discovery, transport Transport) (*Relay, *gateDriver) {
	// Channel capacity: more tokens than any test parks requests.
	d := &gateDriver{entered: make(chan struct{}, 64), cancelled: make(chan struct{}, 64), release: make(chan struct{})}
	r := New("srcnet", discovery, transport)
	r.RegisterDriver("srcnet", d)
	return r, d
}

func (d *gateDriver) Platform() string { return "test" }

func (d *gateDriver) ServeQuery(ctx context.Context, q *wire.Query) ([]byte, error) {
	resp, err := d.answer(ctx, q)
	if err != nil {
		return nil, err
	}
	resp.RequestID = "" // the relay stamps it
	return resp.Marshal(), nil
}

// answer echoes the function name once a "stall" request is released.
func (d *gateDriver) answer(ctx context.Context, q *wire.Query) (*wire.QueryResponse, error) {
	if q.Function == "stall" {
		d.entered <- struct{}{}
		select {
		case <-d.release:
		case <-ctx.Done():
			d.cancelled <- struct{}{}
			return nil, ctx.Err()
		}
	}
	return &wire.QueryResponse{RequestID: q.RequestID, EncryptedResult: []byte(q.Function)}, nil
}

func (d *gateDriver) Invoke(ctx context.Context, q *wire.Query) (*wire.QueryResponse, error) {
	d.invokes.Add(1)
	resp, err := d.answer(ctx, q)
	if err == nil {
		d.commit(q, resp)
	}
	return resp, err
}

// gateEnvelope is a request for a gateDriver relay.
func gateEnvelope(typ wire.MsgType, requestID, function string) *wire.Envelope {
	q := &wire.Query{RequestID: requestID, TargetNetwork: "srcnet", Contract: "cc", Function: function}
	return &wire.Envelope{Version: wire.ProtocolVersion, Type: typ, RequestID: requestID, Payload: q.Marshal()}
}

// awaitToken fails the test unless a token arrives on ch soon.
func awaitToken(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestTCPServerCancelsInFlightOnHangup: a request whose requester hangs up
// is abandoned — its serving context ends as soon as the server sees the
// connection close, instead of the work running to completion for nobody.
func TestTCPServerCancelsInFlightOnHangup(t *testing.T) {
	r, gate := newGateRelay(NewStaticRegistry(), &TCPTransport{})
	server, err := NewTCPServer(r, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPServer: %v", err)
	}
	defer server.Close()
	defer close(gate.release) // first, or a handler that was not cancelled pins Close

	conn, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := wire.WriteEnvelope(conn, 1, gateEnvelope(wire.MsgQuery, "q", "stall")); err != nil {
		t.Fatalf("WriteEnvelope: %v", err)
	}
	awaitToken(t, gate.entered, "the request to reach the driver")
	conn.Close()
	awaitToken(t, gate.cancelled, "the hang-up to cancel the in-flight request")
}

// TestTCPServerCloseDoesNotWaitOutStalledHandler: Close cancels what is in
// service rather than waiting for it to finish on its own.
func TestTCPServerCloseDoesNotWaitOutStalledHandler(t *testing.T) {
	r, gate := newGateRelay(NewStaticRegistry(), &TCPTransport{})
	server, err := NewTCPServer(r, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPServer: %v", err)
	}
	conn, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if err := wire.WriteEnvelope(conn, 1, gateEnvelope(wire.MsgQuery, "q", "stall")); err != nil {
		t.Fatalf("WriteEnvelope: %v", err)
	}
	awaitToken(t, gate.entered, "the request to reach the driver")

	closed := make(chan error, 1)
	go func() { closed <- server.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		close(gate.release) // unpin the handler so the test binary can exit
		t.Fatal("Close waited on a stalled handler")
	}
	awaitToken(t, gate.cancelled, "Close to cancel the in-flight request")
}

// TestTCPServerSurvivesDeepPolicyExpression: one query frame from an
// unauthenticated peer carrying a 20 MB policy expression of nested
// operators gets an error reply, and the next well-formed query on the
// same connection is answered. The source driver parses the expression
// before any authorization, so an unbounded recursive parse would end the
// process with a fatal, unrecoverable stack overflow.
func TestTCPServerSurvivesDeepPolicyExpression(t *testing.T) {
	src, req := newCacheEnv(t)
	server, err := NewTCPServer(src.relay, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPServer: %v", err)
	}
	defer server.Close()
	conn, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	r := bufio.NewReader(conn)

	ask := func(tag uint64, q *wire.Query) *wire.QueryResponse {
		t.Helper()
		env := &wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgQuery, RequestID: q.RequestID, Payload: q.Marshal()}
		if err := wire.WriteEnvelope(conn, tag, env); err != nil {
			t.Fatalf("WriteEnvelope: %v", err)
		}
		gotTag, frame, err := wire.ReadFrame(r)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		reply, err := wire.UnmarshalEnvelope(frame)
		if err != nil {
			t.Fatalf("UnmarshalEnvelope: %v", err)
		}
		if gotTag != tag || reply.Type != wire.MsgQueryResponse {
			t.Fatalf("reply = tag %d type %v (%s), want tag %d type %v", gotTag, reply.Type, reply.Payload, tag, wire.MsgQueryResponse)
		}
		resp, err := wire.UnmarshalQueryResponse(reply.Payload)
		if err != nil {
			t.Fatalf("UnmarshalQueryResponse: %v", err)
		}
		return resp
	}

	deep := newQuery(t, req)
	deep.RequestID = "deep"
	deep.PolicyExpr = strings.Repeat("AND(", 5_000_000)
	if resp := ask(1, deep); !strings.Contains(resp.Error, "verification policy") {
		t.Fatalf("deep expression: error %q, want a verification policy refusal", resp.Error)
	}

	q := newQuery(t, req)
	q.RequestID = "after-deep"
	resp := ask(2, q)
	if resp.Error != "" {
		t.Fatalf("well-formed query after the deep one: %s", resp.Error)
	}
	bundle, err := proof.OpenResponse(cryptoutil.NewRecipient(req.key), q, resp)
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}
	if string(bundle.Result) != `{"bl":"77"}` {
		t.Fatalf("result = %s", bundle.Result)
	}
}

// TestTCPServerReplyWriteDeadline: what a peer that sends requests but
// never reads a reply can hold. Once its replies fill the socket buffers
// the next reply write blocks, and every later reply queues behind it: a
// goroutine, its reply and its request frame each, up to maxConnInFlight.
// Without a write deadline all of that stayed until the peer hung up. Now
// the blocked write times out, the server closes the connection, and
// goroutines and heap return to where they were.
func TestTCPServerReplyWriteDeadline(t *testing.T) {
	const queued = 32 // reply goroutines to pile up behind the blocked write
	defer func(d time.Duration) { replyWriteTimeout = d }(replyWriteTimeout)
	replyWriteTimeout = time.Second
	r, _ := newGateRelay(NewStaticRegistry(), &TCPTransport{})
	server, err := NewTCPServer(r, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPServer: %v", err)
	}
	defer server.Close()
	// The driver echoes the function name, so each reply carries 256 KiB.
	env := gateEnvelope(wire.MsgQuery, "q", strings.Repeat("r", 256<<10))
	goroutines, heap := runtime.NumGoroutine(), liveHeap()

	conn, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	_ = conn.(*net.TCPConn).SetReadBuffer(64 << 10) // no receive-window autotuning
	stack := make([]byte, 1<<20)
	replying := func() int {
		return bytes.Count(stack[:runtime.Stack(stack, true)], []byte("(*TCPServer).serveConn.func"))
	}
	sent := 0
	for ; replying() < queued; sent++ {
		if sent == maxConnInFlight {
			t.Fatalf("%d requests sent and only %d replies held: the socket buffers absorb them", sent, replying())
		}
		_ = conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if err := wire.WriteEnvelope(conn, uint64(sent), env); err != nil {
			t.Fatalf("request %d: %v", sent, err)
		}
		time.Sleep(time.Millisecond) // let the server read it and reach the write
	}
	heldGoroutines, heldHeap := runtime.NumGoroutine()-goroutines, liveHeap()-heap
	t.Logf("after %d unread replies of 256 KiB: %d goroutines and %d KiB of heap held", sent, heldGoroutines, heldHeap>>10)

	waitGoroutines(t, goroutines) // within the deadline plus slack
	grew := liveHeap() - heap
	t.Logf("after the %v reply write deadline: %d goroutines and %d KiB of heap held", replyWriteTimeout, runtime.NumGoroutine()-goroutines, grew>>10)
	if grew > 1<<20 {
		t.Fatalf("the non-reading peer still holds %d KiB of heap after the deadline, want ≤ 1024 KiB", grew>>10)
	}
}

// TestTCPServerFirstFrameDeadline: what peers that connect and never send
// a frame can hold. Each costs the server a serving goroutine, its read
// buffer and a descriptor; with no first-frame deadline they held them
// until they hung up. Now the server drops each at the deadline: its
// goroutines, heap and descriptors are back at baseline, while a
// well-behaved client that pings throughout is never refused. The heap
// and descriptor figures count both ends of each connection, since the
// peers are this process too.
func TestTCPServerFirstFrameDeadline(t *testing.T) {
	const silent = 1000
	defer func(d time.Duration) { firstFrameTimeout = d }(firstFrameTimeout)
	firstFrameTimeout = 2 * time.Second
	reg := NewStaticRegistry()
	transport := &TCPTransport{DialTimeout: time.Second, IOTimeout: 5 * time.Second}
	defer transport.Close()
	server, err := NewTCPServer(New("net", reg, transport), "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPServer: %v", err)
	}
	defer server.Close()

	// The well-behaved client: one connection, a ping every 20 ms.
	probe := New("probe", reg, transport)
	if err := probe.Ping(context.Background(), server.Addr()); err != nil {
		t.Fatalf("first ping: %v", err)
	}
	stop, pingErr := make(chan struct{}), make(chan error, 1)
	var pings atomic.Int64
	go func() {
		defer close(pingErr)
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			if err := probe.Ping(context.Background(), server.Addr()); err != nil {
				pingErr <- err
				return
			}
			pings.Add(1)
		}
	}()
	serving := func() int {
		server.mu.Lock()
		defer server.mu.Unlock()
		return len(server.conns) - 1 // less the well-behaved client's
	}
	var peers []net.Conn
	defer func() {
		for _, c := range peers {
			c.Close()
		}
	}()
	connect := func() {
		t.Helper()
		for range silent {
			c, err := net.Dial("tcp", server.Addr())
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			peers = append(peers, c)
		}
		for held := time.Now().Add(firstFrameTimeout / 2); serving() < silent; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(held) {
				t.Fatalf("the server serves %d of %d silent peers", serving(), silent)
			}
		}
	}
	// A first round that hangs up at once. What the runtime and the map
	// keep at their high-water mark (exited goroutines' descriptors, and
	// the server's connection table, which the live client keeps from
	// draining) is then part of the baseline.
	connect()
	for _, c := range peers {
		c.Close()
	}
	peers = peers[:0]
	for serving() > 0 {
		time.Sleep(5 * time.Millisecond)
	}
	goroutines, heap, fds := runtime.NumGoroutine(), liveHeap(), openFDs()

	connect()
	heldHeap, heldFDs := liveHeap()-heap, openFDs()-fds
	t.Logf("%d silent peers hold %d goroutines, %d KiB of heap (%d B each) and %d descriptors",
		silent, runtime.NumGoroutine()-goroutines, heldHeap>>10, heldHeap/silent, heldFDs)

	waitGoroutines(t, goroutines) // within the deadline plus slack
	_ = peers[0].SetReadDeadline(time.Now().Add(time.Second))
	if n, err := peers[0].Read(make([]byte, 1)); n != 0 || err == nil {
		t.Fatalf("a silent peer's connection is still open after the deadline: read %d, %v", n, err)
	}
	if fds >= 0 && openFDs()-fds > silent {
		t.Fatalf("%d descriptors open after the deadline, want the %d of the peers' own ends", openFDs()-fds, silent)
	}
	for _, c := range peers {
		c.Close()
	}
	peers = nil
	grew := liveHeap() - heap
	t.Logf("after the %v first-frame deadline: %d goroutines, %d KiB of heap and %d descriptors held, %d pings answered meanwhile",
		firstFrameTimeout, runtime.NumGoroutine()-goroutines, grew>>10, openFDs()-fds, pings.Load())
	if grew > 256<<10 {
		t.Fatalf("the silent peers still hold %d KiB of heap after the deadline, want ≤ 256 KiB", grew>>10)
	}
	if fds >= 0 && openFDs() > fds {
		t.Fatalf("%d descriptors open, baseline %d", openFDs(), fds)
	}
	close(stop)
	if err := <-pingErr; err != nil {
		t.Fatalf("a well-behaved client's ping failed while silent peers were held: %v", err)
	}
	if pings.Load() == 0 {
		t.Fatal("no ping was answered while silent peers were held")
	}
}

// TestTCPServerConnectionBurstHoldsNothing: 1000 connections open at once
// and close, with no warm-up round, and the open server holds no more heap
// than before them, within 64 KiB. A per-connection context derived from
// the server's, with a connection table that keeps its peak size, held
// ≈ 100 KiB after such a burst until the server closed.
func TestTCPServerConnectionBurstHoldsNothing(t *testing.T) {
	const burst = 1000
	server, err := NewTCPServer(New("net", NewStaticRegistry(), &TCPTransport{}), "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPServer: %v", err)
	}
	defer server.Close()
	held := connectionBurstHeld(t, server, burst)
	t.Logf("after %d connections opened and closed, the open server holds %d KiB more heap", burst, held>>10)
	if held > 64<<10 {
		t.Fatalf("the open server holds %d KiB of heap after a burst of %d connections, want ≤ 64 KiB", held>>10, burst)
	}
	if err := New("probe", NewStaticRegistry(), &TCPTransport{}).Ping(context.Background(), server.Addr()); err != nil {
		t.Fatalf("ping after the burst: %v", err)
	}
}

// TestTCPServerConnectionBurstWithLivePeerHoldsNothing is the burst again
// while a relay peer keeps its multiplexed connection open throughout, as
// relays do, so the server's connection table never drains. A table
// remade only when it drained kept its peak size, ≈ 52–58 KiB for 1000
// connections. A first burst with no peer connected, which drains the
// table, grows the runtime's per-P timer heaps (the connections' read
// deadlines) to their burst size, so they are part of the baseline; the
// measured burst finds them grown.
func TestTCPServerConnectionBurstWithLivePeerHoldsNothing(t *testing.T) {
	const burst = 1000
	server, err := NewTCPServer(New("net", NewStaticRegistry(), &TCPTransport{}), "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPServer: %v", err)
	}
	defer server.Close()
	connectionBurstHeld(t, server, burst)
	transport := &TCPTransport{}
	defer transport.Close()
	peer := New("peer", NewStaticRegistry(), transport)
	if err := peer.Ping(context.Background(), server.Addr()); err != nil {
		t.Fatalf("ping before the burst: %v", err)
	}
	held := connectionBurstHeld(t, server, burst)
	t.Logf("after %d connections opened and closed beside a live peer, the open server holds %d KiB more heap", burst, held>>10)
	if held > 24<<10 {
		t.Errorf("the open server holds %d KiB of heap after a burst of %d connections beside a live peer, want ≤ 24 KiB", held>>10, burst)
	}
	if err := peer.Ping(context.Background(), server.Addr()); err != nil {
		t.Fatalf("the live peer's ping after the burst: %v", err)
	}
}

// connectionBurstHeld opens burst connections to server at once, closes
// them, waits until the server has let them go and returns how much more
// heap the process then holds than before the burst. The runtime keeps the
// descriptor of every goroutine that ever ran (≈ 440 B each), so it first
// runs and ends twice as many goroutines as the burst starts, none of them
// the server's; the burst then reuses those descriptors.
func connectionBurstHeld(t *testing.T, server *TCPServer, burst int) int64 {
	t.Helper()
	serving := func() int {
		server.mu.Lock()
		defer server.mu.Unlock()
		return len(server.conns)
	}
	before := serving()
	goroutines := runtime.NumGoroutine()
	var started, release sync.WaitGroup
	release.Add(1)
	for range 2 * burst {
		started.Add(1)
		go func() { started.Done(); release.Wait() }()
	}
	started.Wait()
	release.Done()
	waitGoroutines(t, goroutines)
	// Two collections: the wait queue entries those goroutines used are
	// dropped from the runtime's cache by one and freed by the next.
	liveHeap()
	heap := liveHeap()

	peers := make([]net.Conn, 0, burst)
	defer func() {
		for _, c := range peers {
			c.Close()
		}
	}()
	for range burst {
		c, err := net.Dial("tcp", server.Addr())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		peers = append(peers, c)
	}
	for deadline := time.Now().Add(5 * time.Second); serving() < before+burst; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the server serves %d of %d connections", serving()-before, burst)
		}
	}
	for _, c := range peers {
		c.Close()
	}
	peers = nil
	for deadline := time.Now().Add(5 * time.Second); serving() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the server still serves %d closed connections", serving()-before)
		}
	}
	waitGoroutines(t, goroutines)
	liveHeap()
	return liveHeap() - heap
}

// openFDs counts this process's open descriptors, or returns -1 where
// /proc/self/fd does not list them.
func openFDs() int {
	open, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(open)
}
