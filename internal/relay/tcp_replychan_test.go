package relay

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// A TCPTransport connection recycles the reply channel of a Send that
// received its frame. These tests hold it to the rule that makes that
// safe: a channel the reader may still send on (its tag abandoned) or that
// a failed connection closed is never handed to a later Send.

// TestTCPLateReplyNeverReachesLaterSend: a reply that comes after its Send
// gave up, or a connection that fails with Sends pending, never hands a
// later Send anything but its own reply.
func TestTCPLateReplyNeverReachesLaterSend(t *testing.T) {
	t.Run("abandoned", func(t *testing.T) {
		const rounds, later = 200, 4
		held := make(chan struct{})
		release := make(chan struct{})
		peer := newScriptedPeer(t, func(p *scriptedPeer, conn *peerConn) {
			var wmu sync.Mutex
			reply := func(tag uint64, env *wire.Envelope) {
				wmu.Lock()
				defer wmu.Unlock()
				_ = echoReply(conn, tag, env)
			}
			for {
				tag, env, err := p.readRequest(conn)
				if err != nil {
					return
				}
				if !strings.HasPrefix(env.RequestID, "late-") {
					reply(tag, env)
					continue
				}
				held <- struct{}{}
				go func() {
					<-release
					reply(tag, env)
				}()
			}
		})
		transport := &TCPTransport{DialTimeout: time.Second, IOTimeout: 10 * time.Second}
		defer transport.Close()
		send := func(ctx context.Context, id string) error {
			reply, err := transport.Send(ctx, peer.addr(), pingEnvelope(id))
			if err == nil && reply.RequestID != id {
				return fmt.Errorf("send %s was handed the reply to %s", id, reply.RequestID)
			}
			return err
		}
		for i := range rounds {
			id := fmt.Sprintf("late-%d", i)
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- send(ctx, id) }()
			<-held
			if i%2 == 0 {
				// The reply leaves only once the Send has given up on it.
				cancel()
				if err := <-done; !errors.Is(err, context.Canceled) {
					t.Fatalf("round %d: %v, want context.Canceled", i, err)
				}
				release <- struct{}{}
			} else {
				// The reply races the end of the context: the reader may
				// have handed it over when the Send gives up.
				release <- struct{}{}
				cancel()
				if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("round %d: %v", i, err)
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, later)
			for j := range later {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs <- send(context.Background(), fmt.Sprintf("own-%d-%d", i, j))
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatalf("round %d: %v", i, err)
				}
			}
		}
		if n := peer.conns.Load(); n != 1 {
			t.Fatalf("%d connections, want 1: an abandoned tag must leave the connection to the others", n)
		}
	})

	t.Run("failed", func(t *testing.T) {
		const warm, pending, after = 8, 6, 16
		var accepted atomic.Int64
		peer := newScriptedPeer(t, func(p *scriptedPeer, conn *peerConn) {
			first := accepted.Add(1) == 1
			for n := 0; ; n++ {
				tag, env, err := p.readRequest(conn)
				if err != nil {
					return
				}
				if first && n >= warm {
					// Hold the pending requests, then fail the connection
					// under them.
					if n == warm+pending-1 {
						return
					}
					continue
				}
				if echoReply(conn, tag, env) != nil {
					return
				}
			}
		})
		transport := &TCPTransport{DialTimeout: time.Second, IOTimeout: 10 * time.Second}
		defer transport.Close()
		send := func(id string) error {
			reply, err := transport.Send(context.Background(), peer.addr(), pingEnvelope(id))
			if err == nil && reply.RequestID != id {
				return fmt.Errorf("send %s was handed the reply to %s", id, reply.RequestID)
			}
			return err
		}
		// Warm Sends leave their channels on the first connection's free
		// list.
		for i := range warm {
			if err := send(fmt.Sprintf("warm-%d", i)); err != nil {
				t.Fatalf("warm send %d: %v", i, err)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, pending)
		for i := range pending {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Failed, or answered after the resend on a new connection:
				// either way never unreachable and never another's reply.
				if err := send(fmt.Sprintf("pending-%d", i)); err != nil && (errors.Is(err, ErrUnreachable) || !errors.Is(err, errConnLost)) {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("pending send: %v", err)
		}
		for i := range after {
			if err := send(fmt.Sprintf("after-%d", i)); err != nil {
				t.Fatalf("send %d after the redial: %v", i, err)
			}
		}
		if n := peer.conns.Load(); n != 2 {
			t.Fatalf("%d connections, want 2: the failed one and its redial", n)
		}
	})
}

// TestTCPRoundTripAllocations pins what a warm request/reply over a
// loopback TCPTransport/TCPServer pair allocates, both ends counted: a
// ping, so no driver work is in the count. It remains at 8:
//   - client: the reply frame (ReadFrame), the decoded reply envelope and
//     its RequestID;
//   - server: the request frame, the goroutine that serves it, the decoded
//     request envelope and its RequestID, and the pong envelope.
//
// The reply channel is recycled (2 allocations before) and the frames
// written are pooled.
func TestTCPRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled frame buffers")
	}
	server, err := NewTCPServer(New("server", NewStaticRegistry(), nil), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	// The context's deadline comes before IOTimeout's, so the wait needs
	// no timer of its own; the envelope carries no budget.
	transport := &TCPTransport{DialTimeout: time.Second, IOTimeout: time.Minute}
	defer transport.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Second)
	defer cancel()
	addr, ping := server.Addr(), pingEnvelope("ping-0001")
	roundTrip := func() {
		reply, err := transport.Send(ctx, addr, ping)
		if err != nil || reply.Type != wire.MsgPong {
			t.Fatalf("ping: %v", err)
		}
	}
	for range 100 {
		roundTrip()
	}
	const want = 8
	got := testing.AllocsPerRun(500, roundTrip)
	t.Logf("a warm ping round trip allocates %.2f", got)
	if got > want {
		t.Fatalf("a warm ping round trip allocates %.2f, want ≤ %d", got, want)
	}
}
