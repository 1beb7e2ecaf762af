package scenario

import (
	"fmt"
	"time"

	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/msp"
	"repro/internal/relay"
)

// HubNetworkID returns the network identifier of the i-th (0-based)
// forwarding hub tier in a chain deployment: "hub-1-net" is adjacent to
// the origin (SWT) side.
func HubNetworkID(i int) string { return fmt.Sprintf("hub-%d-net", i+1) }

// HubTier is one forwarding network in a chain deployment: its relay
// servers (redundant replicas sharing one discovery view and one route
// table, each with its own signing identity) and the partitioned registry
// that lets them see exactly one network — the next tier, or the source.
type HubTier struct {
	NetworkID string
	Registry  *relay.StaticRegistry
	Routes    *relay.RouteTable
	Servers   []*TCPRelayServer
}

// TCPChainDeployment is the trade world deployed over real TCP, optionally
// stretched over a multi-hop relay chain: SWT → hub-1 → … → hub-N → STL,
// every relay behind its own loopback listener. Discovery is partitioned
// per tier, so the only way a request reaches the source network is the
// full walk. Hub relays serve no drivers; they forward, sign hop pins, and
// fail over across the next tier's replicas like any client-side fan-out.
// Each hub tier and the source are fronted by the same number of redundant
// relays, the §5 answer to a relay going down.
type TCPChainDeployment struct {
	World     *TradeWorld
	Transport *relay.TCPTransport

	// Hubs[0] is adjacent to the origin; Hubs[len-1] resolves the source.
	// Empty for a zero-hub (direct) chain.
	Hubs []*HubTier

	// STLServers[0] fronts STL's own relay; every further entry is a
	// redundant relay with its own driver over the same Fabric network.
	STLServers []*TCPRelayServer
	SWTServer  *TCPRelayServer
}

// BuildTCPChain builds and initializes the trade world over TCP with the
// given number of intermediate hub networks (0 = direct), fronting each hub
// tier and STL with relaysPerTier relays (<1 selects 1). Callers own the
// returned deployment and must Close it.
func BuildTCPChain(hubs, relaysPerTier int) (*TCPChainDeployment, error) {
	if hubs < 0 {
		return nil, fmt.Errorf("scenario: %d hub tiers", hubs)
	}
	if relaysPerTier < 1 {
		relaysPerTier = 1
	}
	registry := relay.NewStaticRegistry()
	transport := &relay.TCPTransport{DialTimeout: 2 * time.Second, IOTimeout: 10 * time.Second}
	w, err := BuildWith(registry, transport)
	if err != nil {
		return nil, err
	}
	d := &TCPChainDeployment{World: w, Transport: transport}
	fail := func(err error) (*TCPChainDeployment, error) {
		d.Close()
		return nil, err
	}

	for i := 0; i < relaysPerTier; i++ {
		r := w.STL.Relay
		if i > 0 {
			r = relay.New(tradelens.NetworkID, registry, transport)
			r.RegisterDriver(tradelens.NetworkID, relay.NewFabricDriver(w.STL.Fabric, "default"))
		}
		srv, err := newTCPRelayServer(tradelens.NetworkID, r)
		if err != nil {
			return fail(err)
		}
		d.STLServers = append(d.STLServers, srv)
	}
	swtSrv, err := newTCPRelayServer(wetrade.NetworkID, w.SWT.Relay)
	if err != nil {
		return fail(err)
	}
	d.SWTServer = swtSrv
	registry.Register(wetrade.NetworkID, swtSrv.Addr())

	// Build tiers source-side first, so each tier can register the bound
	// addresses of the one it forwards to.
	next, nextNet := d.STLServers, tradelens.NetworkID
	tiers := make([]*HubTier, hubs)
	for i := hubs - 1; i >= 0; i-- {
		tier := &HubTier{
			NetworkID: HubNetworkID(i),
			Registry:  relay.NewStaticRegistry(),
			Routes:    relay.NewRouteTable(),
		}
		tiers[i] = tier
		d.Hubs = tiers[i:] // keep Close able to reach servers built so far
		for _, s := range next {
			tier.Registry.Register(nextNet, s.Addr())
		}
		if nextNet != tradelens.NetworkID {
			tier.Routes.Set(tradelens.NetworkID, nextNet)
		}
		ca, err := msp.NewCA(fmt.Sprintf("hub-%d-org", i+1))
		if err != nil {
			return fail(fmt.Errorf("scenario: hub %d CA: %w", i+1, err))
		}
		for j := 0; j < relaysPerTier; j++ {
			id, err := ca.Issue(fmt.Sprintf("hub-%d-relay-%d", i+1, j), msp.RolePeer)
			if err != nil {
				return fail(fmt.Errorf("scenario: hub %d identity: %w", i+1, err))
			}
			hubRelay := relay.New(tier.NetworkID, tier.Registry, transport)
			hubRelay.EnableForwarding(tier.Routes, id)
			srv, err := newTCPRelayServer(tier.NetworkID, hubRelay)
			if err != nil {
				return fail(err)
			}
			tier.Servers = append(tier.Servers, srv)
		}
		next, nextNet = tier.Servers, tier.NetworkID
	}

	// The origin resolves the first hub tier, or the source when direct.
	for _, s := range next {
		registry.Register(nextNet, s.Addr())
	}
	if hubs > 0 {
		routes := relay.NewRouteTable()
		routes.Set(tradelens.NetworkID, HubNetworkID(0))
		// The walk needs exactly hubs+1 transport legs; stamp the TTL tight
		// so a routing mistake fails loudly instead of wandering.
		routes.SetMaxHops(uint64(hubs) + 1)
		w.SWT.Relay.SetRoutes(routes)
	}
	return d, nil
}

// AllServers returns every relay server in the deployment: SWT, each hub
// tier origin-side first, then STL.
func (d *TCPChainDeployment) AllServers() []*TCPRelayServer {
	var all []*TCPRelayServer
	if d.SWTServer != nil {
		all = append(all, d.SWTServer)
	}
	for _, tier := range d.Hubs {
		all = append(all, tier.Servers...)
	}
	return append(all, d.STLServers...)
}

// Close tears every server down, closes the relays' shared transport and
// stops both networks' orderers.
func (d *TCPChainDeployment) Close() {
	for _, s := range d.AllServers() {
		_ = s.Close()
	}
	d.Transport.Close()
	if d.World != nil {
		_ = d.World.STL.Fabric.Orderer().Stop()
		_ = d.World.SWT.Fabric.Orderer().Stop()
	}
}
