package relay

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"repro/internal/wire"
)

// TCPTransport sends envelopes over TCP using the wire framing. It stands
// in for the paper's gRPC channel: one persistent connection per relay
// address carries every request to it, each frame tagged so replies are
// matched to their requests and may complete out of order. The zero value
// is ready to use; Close releases the connections.
//
// Error contract, which the at-most-once rule (sendLeg) rests on:
//
//   - A failed dial is ErrUnreachable: the envelope provably reached no
//     relay, so the caller may fail over to another address. A connection
//     found closed by its peer before the request is written (peerHungUp:
//     the peer restarted, or dropped it while idle) is replaced by a fresh
//     dial inside the same Send, and that dial failing is ErrUnreachable
//     too.
//   - A connection that dies, or a write that fails, with requests in
//     flight is ambiguous: every pending Send gets an error that is not
//     ErrUnreachable, because its envelope may have been executed.
//   - Such a Send is resent at most once, to the same address, and only if
//     the connection was already established when the Send picked it up
//     (the usual cause is a peer that restarted or dropped an idle
//     connection) and the envelope is not a MsgEvent. The resend reaches
//     the same relay process: queries and pings are idempotent outright,
//     invokes are deduplicated there by request ID (handleInvoke replay
//     cache), subscribes by subscription ID; a resent MsgEvent would be
//     delivered to the subscriber twice. If the redial fails, the original
//     error is returned, never the redial's ErrUnreachable.
//   - A Send whose context ends, or that waits out IOTimeout, abandons its
//     tag and leaves the connection to the other requests on it; the late
//     reply is dropped.
type TCPTransport struct {
	// DialTimeout bounds connection establishment. Zero means 5s.
	DialTimeout time.Duration
	// IOTimeout bounds each request round-trip, and each frame write.
	// Zero means 30s. The context's deadline applies on top when sooner.
	IOTimeout time.Duration

	mu        sync.Mutex
	conns     map[string]*muxConn // by address; an entry may still be dialling
	closed    bool
	dialCtx   context.Context // cancelled by Close, so it never waits out a dial
	stopDials context.CancelFunc
	readers   sync.WaitGroup
}

var _ Transport = (*TCPTransport)(nil)

// defaultIOTimeout is IOTimeout's zero-value meaning.
const defaultIOTimeout = 30 * time.Second

// errConnLost marks the ambiguous failures: the request was (or may have
// been) written to a connection that then failed.
var errConnLost = errors.New("relay: connection lost")

// errNotSent marks a connection found dead before the request was written
// to it: like a failed dial, provably not delivered.
var errNotSent = errors.New("connection closed before the request was sent")

// muxConn is one persistent connection and the requests in flight on it.
type muxConn struct {
	addr string

	// ready is closed when the dial has finished; dialErr, conn and raw are
	// written before that and read-only after.
	ready   chan struct{}
	dialErr error
	conn    net.Conn
	raw     syscall.RawConn // conn's descriptor, for peerHungUp

	// wmu serialises frame writes, and the hang-up probe before them.
	wmu    sync.Mutex
	probe  func(fd uintptr) // sets hungUp; built once so a Send allocates no closure
	hungUp bool

	mu      sync.Mutex
	lost    error                  // non-nil once the connection has failed
	nextTag uint64                 // last tag issued
	pending map[uint64]chan []byte // tag → the Send waiting for its reply frame
	// free holds reply channels whose Send received its frame: nothing
	// else refers to them, and they are empty. A channel the reader may
	// still send on (its tag abandoned) or that fail closed never returns.
	free []chan []byte
}

// maxFreeReplies bounds a connection's free reply channels: the server
// serves at most maxConnInFlight of its requests at once.
const maxFreeReplies = maxConnInFlight

// Send implements Transport.
func (t *TCPTransport) Send(ctx context.Context, addr string, env *wire.Envelope) (*wire.Envelope, error) {
	frame, reused, err := t.roundTrip(ctx, addr, env)
	if err != nil && reused && errors.Is(err, errConnLost) && ctx.Err() == nil && env.Type != wire.MsgEvent {
		var retryErr error
		frame, _, retryErr = t.roundTrip(ctx, addr, env)
		if retryErr == nil {
			err = nil
		} else if !errors.Is(retryErr, ErrUnreachable) {
			// Keep the first error when the redial failed: the first
			// attempt may have delivered the envelope, so the caller must
			// not read "provably never delivered" out of the second.
			err = retryErr
		}
	}
	if err != nil {
		return nil, err
	}
	reply, err := wire.UnmarshalEnvelope(frame)
	if err != nil {
		return nil, fmt.Errorf("relay: reply from %s: %w", addr, err)
	}
	return reply, nil
}

// roundTrip writes env to addr's connection, dialling it if need be, and
// waits for the reply frame. reused reports that the connection was
// already established when this call picked it up.
func (t *TCPTransport) roundTrip(ctx context.Context, addr string, env *wire.Envelope) (frame []byte, reused bool, err error) {
	ioTimeout := t.IOTimeout
	if ioTimeout <= 0 {
		ioTimeout = defaultIOTimeout
	}
	var (
		c     *muxConn
		tag   uint64
		reply chan []byte
	)
	for {
		if c, reused, err = t.established(ctx, addr); err != nil {
			return nil, false, err
		}
		tag, reply, err = t.write(c, env, reused, ioTimeout)
		if !errors.Is(err, errNotSent) {
			break
		}
		if !reused {
			return nil, false, fmt.Errorf("%w: %s: %w", ErrUnreachable, addr, err)
		}
		// An established connection that died idle (its peer restarted, or
		// dropped it): nothing was written, so start over on a fresh one.
	}
	if err != nil {
		return nil, reused, err
	}

	// The context's own deadline, when sooner, already bounds the wait.
	var timeout <-chan time.Time
	if deadline, ok := ctx.Deadline(); !ok || time.Until(deadline) > ioTimeout {
		timer := time.NewTimer(ioTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case frame, ok := <-reply:
		if !ok {
			return nil, reused, c.lostErr()
		}
		c.recycle(reply)
		return frame, reused, nil
	case <-ctx.Done():
		c.abandon(tag)
		return nil, reused, fmt.Errorf("relay: reply from %s: %w", addr, ctx.Err())
	case <-timeout:
		c.abandon(tag)
		return nil, reused, fmt.Errorf("relay: reply from %s: %w", addr, os.ErrDeadlineExceeded)
	}
}

// established returns addr's connection once its dial has succeeded.
// reused reports that it already had when this call picked it up.
func (t *TCPTransport) established(ctx context.Context, addr string) (c *muxConn, reused bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if c, err = t.connTo(addr); err != nil {
		return nil, false, err
	}
	select {
	case <-c.ready:
		reused = true
	default:
		select {
		case <-c.ready:
		case <-ctx.Done():
			return nil, false, fmt.Errorf("%w: %s: %w", ErrUnreachable, addr, ctx.Err())
		}
	}
	return c, reused, c.dialErr
}

// write registers a new tag on c and writes env under it. An error
// wrapping errNotSent means c was found dead first and nothing was
// written; any other error means c failed with the frame possibly out.
// probe asks for the kernel's word on the peer before writing (see
// peerHungUp), which a connection this Send just watched being dialled
// does not need.
func (t *TCPTransport) write(c *muxConn, env *wire.Envelope, probe bool, ioTimeout time.Duration) (tag uint64, reply chan []byte, err error) {
	c.mu.Lock()
	if c.lost != nil {
		c.mu.Unlock()
		return 0, nil, fmt.Errorf("%w: %w", errNotSent, c.lost)
	}
	if n := len(c.free); n > 0 {
		reply, c.free = c.free[n-1], c.free[:n-1]
	} else {
		reply = make(chan []byte, 1) // the reader never blocks on an abandoned tag
	}
	c.nextTag++
	tag = c.nextTag
	c.pending[tag] = reply
	c.mu.Unlock()

	c.wmu.Lock()
	if probe && (c.raw.Control(c.probe) != nil || c.hungUp) {
		c.wmu.Unlock()
		t.fail(c, errors.New("closed by peer"))
		return 0, nil, fmt.Errorf("%w: closed by peer", errNotSent)
	}
	// A write blocks only when the peer has stopped draining the socket;
	// the frame may then be half-sent, so a timeout here fails the
	// connection rather than the one request. A deadline that cannot be
	// set means a closed connection, which the write then reports.
	_ = c.conn.SetWriteDeadline(time.Now().Add(ioTimeout))
	err = wire.WriteEnvelope(c.conn, tag, env)
	c.wmu.Unlock()
	if err != nil {
		t.fail(c, err)
		return 0, nil, c.lostErr()
	}
	return tag, reply, nil
}

// connTo returns addr's connection, starting its dial if there is none.
// Concurrent first uses share the one dial, which runs under DialTimeout
// alone — not under the context of whichever caller happened to start it.
func (t *TCPTransport) connTo(addr string) (*muxConn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("%w: %s: transport closed", ErrUnreachable, addr)
	}
	if c := t.conns[addr]; c != nil {
		return c, nil
	}
	if t.conns == nil {
		t.conns = make(map[string]*muxConn)
		t.dialCtx, t.stopDials = context.WithCancel(context.Background())
	}
	c := &muxConn{addr: addr, ready: make(chan struct{}), pending: make(map[uint64]chan []byte)}
	c.probe = func(fd uintptr) { c.hungUp = peerHungUp(fd) }
	t.conns[addr] = c
	t.readers.Add(1)
	go t.run(t.dialCtx, c)
	return c, nil
}

// run is the connection's goroutine: it dials, then delivers reply frames
// to the Sends waiting on their tags until the connection fails.
func (t *TCPTransport) run(dialCtx context.Context, c *muxConn) {
	defer t.readers.Done()
	dialTimeout := t.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = 5 * time.Second
	}
	dialer := net.Dialer{Timeout: dialTimeout}
	conn, err := dialer.DialContext(dialCtx, "tcp", c.addr)
	if err == nil {
		if c.raw, err = conn.(*net.TCPConn).SyscallConn(); err != nil {
			conn.Close()
		}
	}
	if err != nil {
		c.dialErr = fmt.Errorf("%w: %s: %w", ErrUnreachable, c.addr, err)
		t.forget(c)
		close(c.ready)
		return
	}
	c.conn = conn
	close(c.ready)

	r := bufio.NewReader(conn)
	for {
		tag, frame, err := wire.ReadFrame(r)
		if err != nil {
			t.fail(c, err)
			return
		}
		c.mu.Lock()
		reply := c.pending[tag]
		delete(c.pending, tag)
		c.mu.Unlock()
		if reply != nil { // else abandoned, or a tag this side never issued
			reply <- frame
		}
	}
}

// fail retires c, so the next Send to its address redials, then marks it
// lost and fails every Send pending on it. In that order: a Send that finds
// c lost and resends must not be handed c again.
func (t *TCPTransport) fail(c *muxConn, cause error) {
	t.forget(c)
	c.mu.Lock()
	if c.lost == nil {
		c.lost = cause
		for tag, reply := range c.pending {
			close(reply)
			delete(c.pending, tag)
		}
	}
	c.mu.Unlock()
	c.conn.Close()
}

// forget drops c from the connection table unless a successor has already
// taken its address.
func (t *TCPTransport) forget(c *muxConn) {
	t.mu.Lock()
	if t.conns[c.addr] == c {
		delete(t.conns, c.addr)
	}
	t.mu.Unlock()
}

func (c *muxConn) lostErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Errorf("%w: %s: %w", errConnLost, c.addr, c.lost)
}

// recycle returns reply, whose one frame its Send has received, to c's
// free list. The reader dropped its tag before sending, so nothing else
// holds it.
func (c *muxConn) recycle(reply chan []byte) {
	c.mu.Lock()
	if len(c.free) < maxFreeReplies {
		c.free = append(c.free, reply)
	}
	c.mu.Unlock()
}

// abandon gives up on tag's reply; the reader drops it if it still comes.
// Its channel is not recycled: the reader may have taken it already.
func (c *muxConn) abandon(tag uint64) {
	c.mu.Lock()
	delete(c.pending, tag)
	c.mu.Unlock()
}

// Close closes every connection, fails the Sends pending on them, and
// returns once the connection goroutines have exited. Later Sends fail
// with ErrUnreachable.
func (t *TCPTransport) Close() {
	t.mu.Lock()
	t.closed = true
	conns := t.conns
	t.conns = nil
	if t.stopDials != nil {
		t.stopDials()
	}
	t.mu.Unlock()
	for _, c := range conns {
		<-c.ready // prompt: the dial context is cancelled
		if c.dialErr == nil {
			t.fail(c, errors.New("transport closed"))
		}
	}
	t.readers.Wait()
}

// replyWriteTimeout bounds each reply write, as IOTimeout's default bounds
// each request write. A variable only so tests can shorten it.
var replyWriteTimeout = defaultIOTimeout

// firstFrameTimeout bounds how long a new connection may go without
// completing a frame; a silent peer is dropped then. Every client writes
// its request as soon as its dial completes (TCPTransport.write), and a
// client whose idle connection was dropped redials (peerHungUp). A
// variable only so tests can shorten it.
var firstFrameTimeout = 10 * time.Second

// maxConnInFlight bounds the requests one connection may have in service
// at once. When it is reached the server stops reading the connection, so
// a peer that floods frames is throttled by TCP back-pressure rather than
// answered with a goroutine per frame.
const maxConnInFlight = 256

// TCPServer accepts relay connections and dispatches envelopes to a Relay.
type TCPServer struct {
	relay    *Relay
	listener net.Listener

	// ctx ends when Close is called. It stops the accept back-off and a
	// read loop waiting for an in-flight slot; connection contexts are not
	// its children (see serveConn).
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	peak   int // the most entries conns has held since it was made
	closed bool
	done   chan struct{}
}

// NewTCPServer starts serving on the given address ("host:port", ":0" for
// an ephemeral port). The returned server is already accepting.
func NewTCPServer(r *Relay, addr string) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("relay: listen %s: %w", addr, err)
	}
	s := &TCPServer{
		relay:    r,
		listener: ln,
		conns:    make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's bound address.
func (s *TCPServer) Addr() string { return s.listener.Addr().String() }

// acceptLoop serves until the listener is closed. Any other Accept error,
// such as EMFILE when the process is out of descriptors, is retried after
// a back-off of 5 ms doubling to 1 s, net/http.Server.Serve's schedule: a
// relay that returned would stay off the network for good.
func (s *TCPServer) acceptLoop() {
	defer close(s.done)
	var handlers sync.WaitGroup
	defer handlers.Wait()
	var backoff time.Duration
	for {
		conn, err := s.listener.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			select {
			case <-time.After(backoff):
			case <-s.ctx.Done():
				return
			}
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.peak = max(s.peak, len(s.conns))
		s.mu.Unlock()
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			if len(s.conns) <= s.peak/4 {
				// A map keeps the size of its peak, and a relay's own peers
				// keep theirs open, so it may never drain. Rebuilt with its
				// live entries once it falls to a quarter of its peak, it
				// holds nothing of a past burst of connections.
				live := make(map[net.Conn]struct{}, len(s.conns))
				for c := range s.conns {
					live[c] = struct{}{}
				}
				s.conns, s.peak = live, len(live)
			}
			s.mu.Unlock()
		}()
	}
}

// serveConn reads frames until the connection fails, serving each in its
// own goroutine and writing its reply under the request's tag, so a slow
// proof build does not hold up a cache hit queued behind it. Requests run
// under a context that ends when the peer hangs up or the server closes:
// work for a requester that is gone is abandoned, not completed. A peer
// that completes no frame within firstFrameTimeout is dropped. The context
// is not a child of the server's: a parent's set of children keeps the
// size of its peak, so a burst of connections would stay held until the
// server closed. Close reaches the requests all the same, by closing the
// connection, which ends the read loop and so cancels the context.
func (s *TCPServer) serveConn(conn net.Conn) {
	ctx, cancel := context.WithCancel(context.Background())
	var (
		requests sync.WaitGroup
		wmu      sync.Mutex // serialises reply writes
		inFlight = make(chan struct{}, maxConnInFlight)
	)
	defer func() {
		// Close before cancelling: a request cut short must not get its
		// "context canceled" out as a reply the requester would take for
		// the relay's answer. A dead connection it can fail over from.
		conn.Close()
		cancel()
		requests.Wait()
	}()
	r := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(firstFrameTimeout))
	for first := true; ; first = false {
		tag, frame, err := wire.ReadFrame(r)
		if err != nil {
			return // clean EOF, read/framing errors and the deadline alike drop the connection
		}
		if first {
			_ = conn.SetReadDeadline(time.Time{})
		}
		select {
		case inFlight <- struct{}{}:
		case <-s.ctx.Done():
			return
		}
		requests.Add(1)
		go func() {
			defer requests.Done()
			defer func() { <-inFlight }()
			reply := s.serve(ctx, frame)
			wmu.Lock()
			// A peer that stops reading its replies holds this goroutine,
			// and the ones queued behind it, only until the deadline.
			_ = conn.SetWriteDeadline(time.Now().Add(replyWriteTimeout))
			err := wire.WriteEnvelope(conn, tag, reply)
			wmu.Unlock()
			if err != nil {
				conn.Close() // the frame may be half-written; the read loop ends with it
			}
		}()
	}
}

func (s *TCPServer) serve(ctx context.Context, frame []byte) *wire.Envelope {
	env, err := wire.UnmarshalEnvelope(frame)
	if err != nil {
		return errEnvelope("", fmt.Sprintf("malformed envelope: %v", err))
	}
	// The requester's remaining budget arrives in the envelope's
	// TimeoutNanos; handle narrows this context by it. A response
	// reply is encoded once, by WriteEnvelope into the frame.
	return s.relay.handle(ctx, env)
}

// Close stops accepting, closes open connections, cancels the requests in
// service on them and waits for their goroutines to exit.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.closed = true
	err := s.listener.Close()
	for conn := range s.conns {
		conn.Close()
	}
	s.cancel() // after the connections are closed; see serveConn
	s.mu.Unlock()
	<-s.done
	return err
}
