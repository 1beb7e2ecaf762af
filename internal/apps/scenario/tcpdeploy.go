package scenario

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/relay"
)

// TCPRelayServer is one relay process stand-in: a relay instance fronted
// by a TCP listener on a fixed address. It can be killed and restarted on
// the same address mid-run, which is how churn experiments take a relay
// out of — and return it to — a live deployment.
type TCPRelayServer struct {
	NetworkID string
	Relay     *relay.Relay

	mu     sync.Mutex
	server *relay.TCPServer
	addr   string
}

func newTCPRelayServer(networkID string, r *relay.Relay) (*TCPRelayServer, error) {
	srv, err := relay.NewTCPServer(r, "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("scenario: listen for %s relay: %w", networkID, err)
	}
	return &TCPRelayServer{NetworkID: networkID, Relay: r, server: srv, addr: srv.Addr()}, nil
}

// Addr returns the server's bound address. The address is stable across
// Kill/Restart cycles — discovery entries stay valid.
func (s *TCPRelayServer) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// Kill stops the listener and drops open connections, simulating a relay
// crash. In-flight requests observe connection errors; the discovery entry
// keeps pointing at the now-dead address.
func (s *TCPRelayServer) Kill() error {
	s.mu.Lock()
	srv := s.server
	s.server = nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// Restart brings the relay back on its original address. The kernel may
// briefly hold the port after a kill with connections in flight, so the
// rebind retries over a short window before giving up.
func (s *TCPRelayServer) Restart() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.server != nil {
		return nil
	}
	var err error
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		var srv *relay.TCPServer
		srv, err = relay.NewTCPServer(s.Relay, s.addr)
		if err == nil {
			s.server = srv
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("scenario: restart relay on %s: %w", s.addr, err)
}

// Close shuts the server down for good.
func (s *TCPRelayServer) Close() error { return s.Kill() }
