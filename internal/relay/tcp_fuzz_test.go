package relay

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// FuzzServeConn writes arbitrary bytes to a server connection. Properties:
// the server never panics; once the peer hangs up, serveConn returns — it
// is what Close waits on, so nothing a peer sends may wedge it; and a
// well-formed request on a fresh connection is still served afterwards.
func FuzzServeConn(f *testing.F) {
	var valid bytes.Buffer
	for tag, env := range []*wire.Envelope{
		pingEnvelope("p"),
		gateEnvelope(wire.MsgQuery, "q", "fn"),
	} {
		if err := wire.WriteEnvelope(&valid, uint64(tag), env); err != nil {
			f.Fatalf("WriteEnvelope: %v", err)
		}
	}
	whole := valid.Bytes()
	for cut := 0; cut <= len(whole); cut++ {
		f.Add(whole[:cut]) // every truncation, and the two whole frames
	}
	var dup bytes.Buffer
	for i := 0; i < 2; i++ {
		_ = wire.WriteEnvelope(&dup, 7, pingEnvelope("dup"))
	}
	f.Add(dup.Bytes())                                                       // one tag in flight twice
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 1})            // oversize length
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 0x08, 0x01})                        // bare length prefix: no tag marker
	f.Add(append([]byte{0x80, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 9}, 0xFF, 0xFF)) // tagged frame, garbage envelope

	r, _ := newGateRelay(NewStaticRegistry(), NewHub())
	server, err := NewTCPServer(r, "127.0.0.1:0")
	if err != nil {
		f.Fatalf("NewTCPServer: %v", err)
	}
	f.Cleanup(func() { server.Close() })

	f.Fuzz(func(t *testing.T, data []byte) {
		client, served := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			server.serveConn(served)
		}()
		go io.Copy(io.Discard, client) // replies must not block the server; ends with client.Close
		_ = client.SetWriteDeadline(time.Now().Add(2 * time.Second))
		_, _ = client.Write(data) // fails once the server has hung up on bad framing
		client.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("serveConn still running after the peer hung up")
		}

		transport := &TCPTransport{DialTimeout: 2 * time.Second, IOTimeout: 5 * time.Second}
		defer transport.Close()
		reply, err := transport.Send(context.Background(), server.Addr(), pingEnvelope("after"))
		if err != nil || reply.Type != wire.MsgPong {
			t.Fatalf("ping on a fresh connection afterwards: %+v, %v", reply, err)
		}
	})
}
