package scenario

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/relay"
)

// TCPRelayServer is one relay process stand-in: a relay instance fronted
// by a TCP listener on a fixed address. It can be killed and restarted on
// the same address mid-run, which is how churn experiments take a relay
// out of — and return it to — a live deployment.
type TCPRelayServer struct {
	NetworkID string
	Relay     *relay.Relay
	// Driver is the Fabric driver this relay serves queries through, when
	// the relay fronts a Fabric network. Exposed so tests can reach
	// driver-level seams (ConfigureAttestationBatching) per relay instance.
	Driver *relay.FabricDriver

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

// TCPDeployment is the trade world deployed over real TCP: every relay
// behind its own listener on a loopback port, discovery carrying the bound
// addresses, and optionally extra redundant relays fronting STL — the §5
// redundant-relay topology as separate network endpoints rather than
// in-process hub attachments.
type TCPDeployment struct {
	World     *TradeWorld
	Registry  *relay.StaticRegistry
	Transport *relay.TCPTransport

	// STLServers[0] fronts the network's own relay; any further entries
	// are extra redundant relay instances over the same Fabric.
	STLServers []*TCPRelayServer
	SWTServer  *TCPRelayServer
}

// BuildTCP builds and initializes the trade world over TCP with
// 1+extraSTLRelays relays fronting STL. Callers own the returned
// deployment and must Close it.
func BuildTCP(extraSTLRelays int) (*TCPDeployment, error) {
	registry := relay.NewStaticRegistry()
	transport := &relay.TCPTransport{DialTimeout: 2 * time.Second, IOTimeout: 10 * time.Second}
	w, err := BuildWith(registry, transport)
	if err != nil {
		return nil, err
	}
	d := &TCPDeployment{World: w, Registry: registry, Transport: transport}

	primary, err := newTCPRelayServer(tradelens.NetworkID, w.STL.Relay)
	if err != nil {
		return nil, err
	}
	primary.Driver = w.STL.Driver
	d.STLServers = append(d.STLServers, primary)
	for i := 0; i < extraSTLRelays; i++ {
		extra := relay.New(tradelens.NetworkID, registry, transport)
		driver := relay.NewFabricDriver(w.STL.Fabric, "default")
		extra.RegisterDriver(tradelens.NetworkID, driver)
		srv, err := newTCPRelayServer(tradelens.NetworkID, extra)
		if err != nil {
			d.Close()
			return nil, err
		}
		srv.Driver = driver
		d.STLServers = append(d.STLServers, srv)
	}
	swt, err := newTCPRelayServer(wetrade.NetworkID, w.SWT.Relay)
	if err != nil {
		d.Close()
		return nil, err
	}
	swt.Driver = w.SWT.Driver
	d.SWTServer = swt

	for _, s := range d.STLServers {
		registry.Register(tradelens.NetworkID, s.Addr())
	}
	registry.Register(wetrade.NetworkID, swt.Addr())
	return d, nil
}

// AllServers returns every relay server in the deployment.
func (d *TCPDeployment) AllServers() []*TCPRelayServer {
	all := append([]*TCPRelayServer{}, d.STLServers...)
	if d.SWTServer != nil {
		all = append(all, d.SWTServer)
	}
	return all
}

// Close tears every server down, closes the relays' shared transport and
// stops both networks' orderers, so a deployment leaves no connection
// reader behind and commits nothing after it closes.
func (d *TCPDeployment) Close() {
	for _, s := range d.AllServers() {
		_ = s.Close()
	}
	d.Transport.Close()
	if d.World != nil {
		_ = d.World.STL.Fabric.Orderer().Stop()
		_ = d.World.SWT.Fabric.Orderer().Stop()
	}
}
