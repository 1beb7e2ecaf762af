package relay

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// The TCPTransport contract: one connection per address, replies matched
// by frame tag, and the error classes sendLeg depends on. Tests that
// need a relay behind the socket use a real TCPServer over a gateDriver;
// tests that script the peer's misbehaviour use scriptedPeer.

// scriptedPeer listens on loopback and runs serve on every accepted
// connection. It counts the connections, and readRequest tallies the
// requests by envelope type.
type scriptedPeer struct {
	ln     net.Listener
	conns  atomic.Int64
	mu     sync.Mutex
	frames map[wire.MsgType]int
	wg     sync.WaitGroup
}

func newScriptedPeer(t *testing.T, serve func(p *scriptedPeer, conn *peerConn)) *scriptedPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	p := &scriptedPeer{ln: ln, frames: make(map[wire.MsgType]int)}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.conns.Add(1)
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				defer conn.Close()
				serve(p, &peerConn{Conn: conn, r: bufio.NewReader(conn)})
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		p.wg.Wait()
	})
	return p
}

func (p *scriptedPeer) addr() string { return p.ln.Addr().String() }

// peerConn is an accepted connection and the reader its frames are read
// through.
type peerConn struct {
	net.Conn
	r *bufio.Reader
}

// readRequest reads one request frame and tallies its envelope type.
func (p *scriptedPeer) readRequest(conn *peerConn) (tag uint64, env *wire.Envelope, err error) {
	tag, frame, err := wire.ReadFrame(conn.r)
	if err != nil {
		return 0, nil, err
	}
	env, err = wire.UnmarshalEnvelope(frame)
	if err != nil {
		return 0, nil, err
	}
	p.mu.Lock()
	p.frames[env.Type]++
	p.mu.Unlock()
	return tag, env, nil
}

func (p *scriptedPeer) seen(typ wire.MsgType) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.frames[typ]
}

// echoReply answers a request with a pong that carries the request's
// payload back, so a test can tell whose reply it was handed.
func echoReply(conn net.Conn, tag uint64, req *wire.Envelope) error {
	reply := &wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgPong, RequestID: req.RequestID, Payload: req.Payload}
	return wire.WriteEnvelope(conn, tag, reply)
}

func pingEnvelope(requestID string, payload ...byte) *wire.Envelope {
	return &wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgPing, RequestID: requestID, Payload: payload}
}

// waitGoroutines fails the test unless the goroutine count returns to
// baseline: nothing the test started is still running.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMuxConnLossFailsEveryPendingSend: the server dies with N requests in
// flight on the one connection. Every one of them fails, none with
// ErrUnreachable (each may have been executed), and once a server is back
// on the address the next Send simply redials.
func TestMuxConnLossFailsEveryPendingSend(t *testing.T) {
	const inFlight = 8
	transport := &TCPTransport{DialTimeout: time.Second, IOTimeout: 10 * time.Second}
	defer transport.Close()
	r, gate := newGateRelay(NewStaticRegistry(), transport)
	server, err := NewTCPServer(r, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPServer: %v", err)
	}
	addr := server.Addr()
	// Establish the connection first, so the failures below are on a reused
	// connection and exercise the resend (whose redial finds nobody).
	if _, err := transport.Send(context.Background(), addr, pingEnvelope("warm")); err != nil {
		t.Fatalf("warm-up ping: %v", err)
	}

	errs := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		go func() {
			_, err := transport.Send(context.Background(), addr, gateEnvelope(wire.MsgQuery, "q", "stall"))
			errs <- err
		}()
	}
	for i := 0; i < inFlight; i++ {
		awaitToken(t, gate.entered, "every request to be in service")
	}
	if err := server.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 0; i < inFlight; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a Send pending on the killed connection succeeded")
			}
			if errors.Is(err, ErrUnreachable) {
				t.Fatalf("pending Send failed as provably undelivered: %v", err)
			}
			if !errors.Is(err, errConnLost) {
				t.Fatalf("pending Send failed with %v, want the connection-lost error", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a pending Send outlived its connection")
		}
	}

	server2, err := NewTCPServer(r, addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer server2.Close()
	if _, err := transport.Send(context.Background(), addr, pingEnvelope("again")); err != nil {
		t.Fatalf("Send after the server came back: %v", err)
	}
}

// TestMuxInvokeDoesNotFailOverOnConnLoss: an invoke in flight when its
// relay dies is ambiguous, so sendLeg must not try the live standby
// — which it would if the transport's failed redial leaked ErrUnreachable.
func TestMuxInvokeDoesNotFailOverOnConnLoss(t *testing.T) {
	reg := NewStaticRegistry()
	transport := &TCPTransport{DialTimeout: time.Second, IOTimeout: 10 * time.Second}
	defer transport.Close()
	dest := New("destnet", reg, transport)
	type replica struct {
		server *TCPServer
		gate   *gateDriver
	}
	var replicas [2]replica
	for i := range replicas {
		r, gate := newGateRelay(reg, transport)
		server, err := NewTCPServer(r, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("NewTCPServer: %v", err)
		}
		defer server.Close()
		replicas[i] = replica{server, gate}
		reg.Register("srcnet", server.Addr())
		// Establish the connection, so the invoke fails on a reused one and
		// goes through the resend whose redial finds nobody.
		if err := dest.Ping(context.Background(), server.Addr()); err != nil {
			t.Fatalf("warm-up ping: %v", err)
		}
	}

	done := make(chan error, 1)
	go func() {
		_, err := dest.Invoke(context.Background(), &wire.Query{TargetNetwork: "srcnet", Contract: "cc", Function: "stall"})
		done <- err
	}()
	// Health ordering picks the replica; whichever it is dies under the
	// invoke, and the other is the live standby.
	var chosen, standby replica
	select {
	case <-replicas[0].gate.entered:
		chosen, standby = replicas[0], replicas[1]
	case <-replicas[1].gate.entered:
		chosen, standby = replicas[1], replicas[0]
	case <-time.After(5 * time.Second):
		t.Fatal("the invoke never reached a replica")
	}
	if err := chosen.server.Close(); err != nil {
		t.Fatalf("close the serving replica: %v", err)
	}
	select {
	case err := <-done:
		if err == nil || errors.Is(err, ErrUnreachable) || errors.Is(err, ErrAllRelaysFailed) {
			t.Fatalf("Invoke = %v, want the ambiguous connection-lost error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Invoke outlived its connection")
	}
	if n := standby.gate.invokes.Load(); n != 0 {
		t.Fatalf("standby served %d invokes, want 0: an ambiguous invoke failed over", n)
	}
	if n := chosen.gate.invokes.Load(); n != 1 {
		t.Fatalf("the serving replica executed the invoke %d times, want 1", n)
	}
}

// TestMuxCancelledSendLeavesConnection: cancelling one of two in-flight
// Sends fails that Send alone. The other still gets its reply on the same
// connection, and the cancelled one's late reply is dropped without
// leaving a map entry or a goroutine behind.
func TestMuxCancelledSendLeavesConnection(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cancelledA := make(chan struct{})
	peer := newScriptedPeer(t, func(p *scriptedPeer, conn *peerConn) {
		tags := map[string]uint64{}
		reqs := map[string]*wire.Envelope{}
		for len(tags) < 2 {
			tag, env, err := p.readRequest(conn)
			if err != nil {
				return
			}
			tags[env.RequestID], reqs[env.RequestID] = tag, env
		}
		<-cancelledA
		// A's reply is late; B's follows it on the wire, so by the time B's
		// Send returns the client's reader has already dealt with A's.
		_ = echoReply(conn, tags["a"], reqs["a"])
		_ = echoReply(conn, tags["b"], reqs["b"])
		for {
			tag, env, err := p.readRequest(conn)
			if err != nil {
				return
			}
			_ = echoReply(conn, tag, env)
		}
	})
	transport := &TCPTransport{DialTimeout: time.Second, IOTimeout: 10 * time.Second}

	ctxA, cancelA := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, err := transport.Send(ctxA, peer.addr(), pingEnvelope("a", 'A'))
		errA <- err
	}()
	replyB := make(chan *wire.Envelope, 1)
	go func() {
		reply, err := transport.Send(context.Background(), peer.addr(), pingEnvelope("b", 'B'))
		if err != nil {
			t.Errorf("Send b: %v", err)
		}
		replyB <- reply
	}()
	for peer.seen(wire.MsgPing) < 2 {
		time.Sleep(time.Millisecond)
	}
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Send = %v, want context.Canceled", err)
	}
	close(cancelledA)
	if reply := <-replyB; reply == nil || !bytes.Equal(reply.Payload, []byte{'B'}) {
		t.Fatalf("surviving Send got %+v, want its own reply", reply)
	}

	transport.mu.Lock()
	c := transport.conns[peer.addr()]
	transport.mu.Unlock()
	if c == nil {
		t.Fatal("the cancellation cost the transport its connection")
	}
	c.mu.Lock()
	pending, lost := len(c.pending), c.lost
	c.mu.Unlock()
	if pending != 0 || lost != nil {
		t.Fatalf("after the late reply: %d pending tags, lost = %v; want 0, nil", pending, lost)
	}
	if _, err := transport.Send(context.Background(), peer.addr(), pingEnvelope("c")); err != nil {
		t.Fatalf("Send on the connection after a cancellation: %v", err)
	}
	if n := peer.conns.Load(); n != 1 {
		t.Fatalf("peer accepted %d connections, want 1", n)
	}

	transport.Close()
	peer.ln.Close()
	peer.wg.Wait()
	waitGoroutines(t, baseline)
}

// TestMuxSameRequestIDInFlightTwice: correlation is by frame tag, not by
// Envelope.RequestID — two concurrent Sends under one RequestID (a fixed-ID
// workload, a retry racing its original) each get their own reply, even
// when the replies come back in the other order.
func TestMuxSameRequestIDInFlightTwice(t *testing.T) {
	peer := newScriptedPeer(t, func(p *scriptedPeer, conn *peerConn) {
		type request struct {
			tag uint64
			env *wire.Envelope
		}
		var reqs []request
		for len(reqs) < 2 {
			tag, env, err := p.readRequest(conn)
			if err != nil {
				return
			}
			reqs = append(reqs, request{tag, env})
		}
		_ = echoReply(conn, reqs[1].tag, reqs[1].env)
		_ = echoReply(conn, reqs[0].tag, reqs[0].env)
	})
	transport := &TCPTransport{DialTimeout: time.Second, IOTimeout: 10 * time.Second}
	defer transport.Close()

	var wg sync.WaitGroup
	for _, mark := range []byte{'x', 'y'} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply, err := transport.Send(context.Background(), peer.addr(), pingEnvelope("same-id", mark))
			if err != nil {
				t.Errorf("Send %c: %v", mark, err)
				return
			}
			if !bytes.Equal(reply.Payload, []byte{mark}) {
				t.Errorf("Send %c was handed the reply to %q", mark, reply.Payload)
			}
		}()
	}
	wg.Wait()
}

// TestMuxFastReplyOvertakesStalledRequest: a request stuck in the driver
// does not head-of-line-block the one behind it on the same connection.
func TestMuxFastReplyOvertakesStalledRequest(t *testing.T) {
	transport := &TCPTransport{DialTimeout: time.Second, IOTimeout: 10 * time.Second}
	defer transport.Close()
	r, gate := newGateRelay(NewStaticRegistry(), transport)
	server, err := NewTCPServer(r, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPServer: %v", err)
	}
	defer server.Close()

	stalled := make(chan error, 1)
	go func() {
		_, err := transport.Send(context.Background(), server.Addr(), gateEnvelope(wire.MsgQuery, "slow", "stall"))
		stalled <- err
	}()
	awaitToken(t, gate.entered, "the slow request to be in service")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reply, err := transport.Send(ctx, server.Addr(), gateEnvelope(wire.MsgQuery, "fast", "fast"))
	if err != nil {
		t.Fatalf("fast request behind a stalled one: %v", err)
	}
	if reply.Type != wire.MsgQueryResponse {
		t.Fatalf("fast reply type = %v", reply.Type)
	}
	select {
	case err := <-stalled:
		t.Fatalf("stalled request returned (%v) before it was released", err)
	default:
	}
	close(gate.release)
	if err := <-stalled; err != nil {
		t.Fatalf("stalled request after release: %v", err)
	}
}

// TestMuxConcurrentFirstUseSharesOneDial: Sends that race to a new address
// ride one connection, and when that one dial fails every one of them
// learns the address is unreachable.
func TestMuxConcurrentFirstUseSharesOneDial(t *testing.T) {
	const senders = 8
	peer := newScriptedPeer(t, func(p *scriptedPeer, conn *peerConn) {
		for {
			tag, env, err := p.readRequest(conn)
			if err != nil {
				return
			}
			_ = echoReply(conn, tag, env)
		}
	})
	refused, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	refusedAddr := refused.Addr().String()
	refused.Close() // nothing listens here any more

	transport := &TCPTransport{DialTimeout: time.Second, IOTimeout: 5 * time.Second}
	defer transport.Close()
	race := func(addr string) []error {
		start := make(chan struct{})
		errs := make([]error, senders)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, errs[i] = transport.Send(context.Background(), addr, pingEnvelope("p"))
			}()
		}
		close(start)
		wg.Wait()
		return errs
	}
	for i, err := range race(peer.addr()) {
		if err != nil {
			t.Fatalf("sender %d: %v", i, err)
		}
	}
	if n := peer.conns.Load(); n != 1 {
		t.Fatalf("%d senders opened %d connections, want 1", senders, n)
	}
	for i, err := range race(refusedAddr) {
		if !errors.Is(err, ErrUnreachable) {
			t.Fatalf("sender %d to a refused address: %v, want ErrUnreachable", i, err)
		}
	}
}

// TestMuxResendsAtMostOnceAndNeverEvents: on a connection that was already
// established, a request whose connection dies is resent once, to the same
// address; when the fresh connection dies too the Send fails (ambiguously)
// rather than trying again. A MsgEvent is not resent at all — the
// subscriber would see it twice.
func TestMuxResendsAtMostOnceAndNeverEvents(t *testing.T) {
	// The peer answers pings and hangs up on anything else.
	peer := newScriptedPeer(t, func(p *scriptedPeer, conn *peerConn) {
		for {
			tag, env, err := p.readRequest(conn)
			if err != nil || env.Type != wire.MsgPing {
				return
			}
			_ = echoReply(conn, tag, env)
		}
	})
	transport := &TCPTransport{DialTimeout: time.Second, IOTimeout: 5 * time.Second}
	defer transport.Close()
	send := func(env *wire.Envelope) error {
		// Each case starts on an established, so reused, connection.
		if _, err := transport.Send(context.Background(), peer.addr(), pingEnvelope("warm")); err != nil {
			t.Fatalf("warm-up ping: %v", err)
		}
		_, err := transport.Send(context.Background(), peer.addr(), env)
		if err == nil || errors.Is(err, ErrUnreachable) {
			t.Fatalf("Send %v = %v, want the connection-lost error", env.Type, err)
		}
		return err
	}

	send(gateEnvelope(wire.MsgQuery, "q", "fn"))
	if n := peer.seen(wire.MsgQuery); n != 2 {
		t.Fatalf("peer saw the query %d times, want 2 (the original and one resend)", n)
	}
	send(&wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgEvent, RequestID: "e", Payload: []byte("ev")})
	if n := peer.seen(wire.MsgEvent); n != 1 {
		t.Fatalf("peer saw the event %d times, want 1", n)
	}
}

// TestMuxRedialsAfterPeerRestart: the peer restarted on the same address
// while the connection sat idle. The next Send succeeds, either because
// the reader had already noticed and retired the connection or through the
// one resend.
func TestMuxRedialsAfterPeerRestart(t *testing.T) {
	reg := NewStaticRegistry()
	transport := &TCPTransport{DialTimeout: time.Second, IOTimeout: 2 * time.Second}
	defer transport.Close()
	target := New("net", reg, transport)
	server, err := NewTCPServer(target, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPServer: %v", err)
	}
	addr := server.Addr()
	probe := New("probe", reg, transport)
	if err := probe.Ping(context.Background(), addr); err != nil {
		t.Fatalf("first ping: %v", err)
	}
	if err := server.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	server2, err := NewTCPServer(target, addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer server2.Close()
	if err := probe.Ping(context.Background(), addr); err != nil {
		t.Fatalf("ping after restart: %v", err)
	}
}

// TestMuxCloseFailsPendingAndJoins: Close fails what is in flight (not as
// ErrUnreachable — it was sent), refuses later Sends as undelivered, and
// with the server closed too leaves no goroutine behind.
func TestMuxCloseFailsPendingAndJoins(t *testing.T) {
	baseline := runtime.NumGoroutine()
	transport := &TCPTransport{DialTimeout: time.Second, IOTimeout: 10 * time.Second}
	r, gate := newGateRelay(NewStaticRegistry(), transport)
	var servers []*TCPServer
	for i := 0; i < 2; i++ {
		server, err := NewTCPServer(r, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("NewTCPServer: %v", err)
		}
		servers = append(servers, server)
		if _, err := transport.Send(context.Background(), server.Addr(), pingEnvelope("p")); err != nil {
			t.Fatalf("ping: %v", err)
		}
	}
	pending := make(chan error, 1)
	go func() {
		_, err := transport.Send(context.Background(), servers[0].Addr(), gateEnvelope(wire.MsgQuery, "q", "stall"))
		pending <- err
	}()
	awaitToken(t, gate.entered, "the request to be in service")

	transport.Close()
	if err := <-pending; err == nil || errors.Is(err, ErrUnreachable) {
		t.Fatalf("Send pending at Close = %v, want the connection-lost error", err)
	}
	if _, err := transport.Send(context.Background(), servers[1].Addr(), pingEnvelope("late")); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("Send after Close = %v, want ErrUnreachable", err)
	}
	transport.Close() // idempotent
	for _, server := range servers {
		if err := server.Close(); err != nil {
			t.Fatalf("server Close: %v", err)
		}
	}
	waitGoroutines(t, baseline)
}

// TestMuxPooledFramesNeverReusedInUse: outbound frames are encoded into
// recycled buffers on both ends, so a buffer handed back while its frame
// was still being written would corrupt some other request or reply. Many
// concurrent Sends on one connection, each of its own size and content and
// one past the pooled size, must each get back exactly their own bytes —
// from a real server, whose replies are pooled too, and then from a peer
// that hangs up once with requests in flight, so one request is resent
// (re-encoded, under a new tag) while the others come and go.
func TestMuxPooledFramesNeverReusedInUse(t *testing.T) {
	const senders, each = 8, 8
	content := func(g, i int) string {
		size := (g*each + i) * 997 % 9000
		if g == 0 && i == 0 {
			size = 100 << 10 // frames past the pooled size, both ways
		}
		return fmt.Sprintf("%d/%d:", g, i) + strings.Repeat(string(rune('a'+(g*each+i)%26)), size)
	}
	hammer := func(t *testing.T, send func(id, body string) (got, want []byte, err error)) {
		var wg sync.WaitGroup
		for g := range senders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range each {
					got, want, err := send(fmt.Sprintf("q-%d-%d", g, i), content(g, i))
					if err != nil {
						t.Errorf("Send %d/%d: %v", g, i, err)
					} else if !bytes.Equal(got, want) {
						t.Errorf("Send %d/%d: reply of %d bytes differs from the %d expected", g, i, len(got), len(want))
					}
				}
			}()
		}
		wg.Wait()
	}

	t.Run("server", func(t *testing.T) {
		transport := &TCPTransport{DialTimeout: time.Second, IOTimeout: 10 * time.Second}
		defer transport.Close()
		r, _ := newGateRelay(NewStaticRegistry(), transport)
		server, err := NewTCPServer(r, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("NewTCPServer: %v", err)
		}
		defer server.Close()
		// The gate driver echoes the function: the reply is known to the byte.
		hammer(t, func(id, body string) ([]byte, []byte, error) {
			reply, err := transport.Send(context.Background(), server.Addr(), gateEnvelope(wire.MsgQuery, id, body))
			if err != nil {
				return nil, nil, err
			}
			return reply.Payload, (&wire.QueryResponse{RequestID: id, EncryptedResult: []byte(body)}).Marshal(), nil
		})
	})

	t.Run("resend", func(t *testing.T) {
		var (
			mu     sync.Mutex
			copies [][]byte // each arrival of the marked request
		)
		peer := newScriptedPeer(t, func(p *scriptedPeer, conn *peerConn) {
			for {
				tag, frame, err := wire.ReadFrame(conn.r)
				if err != nil {
					return
				}
				env, err := wire.UnmarshalEnvelope(frame)
				if err != nil {
					return
				}
				if env.RequestID == "resent" {
					mu.Lock()
					copies = append(copies, frame)
					first := len(copies) == 1
					mu.Unlock()
					if first {
						return // hang up with it, and whatever else, in flight
					}
				}
				_ = echoReply(conn, tag, env)
			}
		})
		transport := &TCPTransport{DialTimeout: time.Second, IOTimeout: 10 * time.Second}
		defer transport.Close()
		echo := func(id, body string) ([]byte, []byte, error) {
			reply, err := transport.Send(context.Background(), peer.addr(), pingEnvelope(id, []byte(body)...))
			if err != nil {
				return nil, nil, err
			}
			return reply.Payload, []byte(body), nil
		}
		if _, _, err := echo("warm", "w"); err != nil { // so the marked Send reuses the connection
			t.Fatalf("warm-up ping: %v", err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			hammer(t, echo)
		}()
		got, want, err := echo("resent", content(3, 5))
		<-done
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("resent Send: %d bytes back, %v", len(got), err)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(copies) != 2 || !bytes.Equal(copies[0], copies[1]) {
			t.Fatalf("the marked request arrived %d times; want twice, the same bytes", len(copies))
		}
	})
}
