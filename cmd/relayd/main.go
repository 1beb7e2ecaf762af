// Command relayd runs a relay-fronted demo source network over TCP: it
// boots the Simplified TradeLens network with seeded trade data, provisions
// a foreign client (the We.Trade seller of the paper's use case) with full
// interop configuration, writes the deployment artifacts (relay registry
// and client kit), and serves the relay protocol until interrupted. The
// relay registers itself in the discovery registry under a TTL lease that
// it renews on a heartbeat and withdraws on shutdown; restarting against
// the same deployment directory refreshes the single registry entry rather
// than accumulating duplicates.
//
// Several relayd processes may share one deployment directory: discovery
// membership lives in an append-only lease journal (registry.jsonl) where
// every heartbeat is one O(1) appended record, and the append that grows
// the journal past its size threshold compacts it. Discovery carries
// membership only: each relay scores peer addresses from its own sends.
// Note that each process boots its own in-memory demo network and writes
// its own client kit, so in this simulation the processes genuinely share
// discovery state, not a ledger — run interopctl against the relay whose
// kit was written last, or use a per-process -dir when the data plane
// matters. (Production relays front one real ledger; the ledger-level
// exactly-once machinery is exercised across relay instances in the
// scenario tests.)
//
// Usage:
//
//	relayd -listen 127.0.0.1:9080 -dir ./deploy
//
// Afterwards, from another process:
//
//	interopctl -dir ./deploy -po po-1001
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/deploy"
	"repro/internal/msp"
	"repro/internal/policy"
	"repro/internal/relay"
	"repro/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "relayd:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:9080", "address to serve the relay protocol on")
	dir := flag.String("dir", "./deploy", "deployment directory for registry and client kit")
	seed := flag.Bool("seed", true, "seed the demo shipment and bill of lading")
	leaseTTL := flag.Duration("lease-ttl", time.Minute,
		"discovery lease TTL; the relay re-announces at a third of this and deregisters on shutdown (0 = permanent entry)")
	var routeSpecs routeFlags
	flag.Var(&routeSpecs, "route",
		"static multi-hop route 'target=via1,via2' (repeatable); any -route enables forwarding: requests for networks this relay has no driver for are relayed onward and every carried response gains a signed hop pin")
	maxHops := flag.Uint64("max-hops", 0,
		fmt.Sprintf("hop TTL stamped on envelopes this relay routes (0 = default %d transport legs)", relay.DefaultMaxHops))
	flag.Parse()

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return fmt.Errorf("create deployment dir: %w", err)
	}
	registry := relay.NewJournalRegistry(deploy.JournalPath(*dir))
	if !relay.FlockSupported {
		// Without a real flock, compaction cannot exclude appends from
		// *other* processes; the documented constraint on such platforms is
		// one relayd per deploy dir, under which this process's own
		// serialization suffices.
		log.Printf("warning: no cross-process file locking on this platform; run a single relayd per deployment directory")
	}
	transport := &relay.TCPTransport{DialTimeout: 5 * time.Second, IOTimeout: 30 * time.Second}
	defer transport.Close()

	// Boot the source network with its relay.
	stl, err := tradelens.BuildNetwork(registry, transport)
	if err != nil {
		return err
	}
	admin, err := tradelens.AdminGateway(stl, tradelens.SellerOrg)
	if err != nil {
		return err
	}

	// Static multi-hop routes: parse the -route flags into a table, enable
	// forwarding under a relay-held signing identity, and record the config
	// in the deployment dir for `netadmin route list`.
	if len(routeSpecs) > 0 || *maxHops > 0 {
		routes := relay.NewRouteTable()
		routesCfg := &deploy.RoutesConfig{MaxHops: *maxHops}
		for _, spec := range routeSpecs {
			target, vias, err := relay.ParseRoute(spec)
			if err != nil {
				return err
			}
			routes.Set(target, vias...)
			routesCfg.Routes = append(routesCfg.Routes, deploy.RouteSpec{Target: target, Vias: vias})
		}
		if *maxHops > 0 {
			routes.SetMaxHops(*maxHops)
		}
		relayCA, err := msp.NewCA(tradelens.SellerOrg + "-relay")
		if err != nil {
			return err
		}
		relayID, err := relayCA.Issue("relayd-forwarder", msp.RolePeer)
		if err != nil {
			return err
		}
		stl.Relay.EnableForwarding(routes, relayID)
		if err := deploy.SaveRoutes(*dir, routesCfg); err != nil {
			return err
		}
		log.Printf("forwarding enabled: %d static route(s), hop TTL %d", len(routesCfg.Routes), routes.MaxHops())
	}

	// Provision the foreign requester: a seller-bank client of a minimal
	// "we-trade" identity domain.
	clientCA, err := msp.NewCA(wetrade.SellerBankOrg)
	if err != nil {
		return err
	}
	clientKey, err := cryptoutil.GenerateKey()
	if err != nil {
		return err
	}
	clientCert, err := clientCA.IssueForKey("swt-seller-client", msp.RoleClient, &clientKey.PublicKey)
	if err != nil {
		return err
	}
	clientIdentity := &msp.Identity{
		Name: "swt-seller-client", OrgID: wetrade.SellerBankOrg,
		Role: msp.RoleClient, Cert: clientCert, Key: clientKey,
	}
	foreignCfg := &wire.NetworkConfig{
		NetworkID: wetrade.NetworkID,
		Platform:  "fabric",
		Orgs: []wire.OrgConfig{
			{OrgID: wetrade.SellerBankOrg, RootCertPEM: clientCA.RootCertPEM()},
		},
	}

	// Interop initialization on the source ledger: record the foreign
	// config, grant the paper's access rule.
	if err := stl.ConfigureForeignNetwork(admin, foreignCfg); err != nil {
		return err
	}
	if err := stl.GrantAccess(admin, policy.AccessRule{
		Network:   wetrade.NetworkID,
		Org:       wetrade.SellerBankOrg,
		Chaincode: tradelens.ChaincodeName,
		Function:  tradelens.FnGetBillOfLading,
	}); err != nil {
		return err
	}

	if *seed {
		if err := seedDemoData(context.Background(), stl); err != nil {
			return err
		}
		log.Printf("seeded shipment po-1001 with bill of lading bl-7734")
	}

	// Write the client kit for interopctl.
	keyDER, err := cryptoutil.MarshalPrivateKey(clientKey)
	if err != nil {
		return err
	}
	kit := &deploy.ClientKit{
		RequestingNetwork:  wetrade.NetworkID,
		Org:                wetrade.SellerBankOrg,
		Name:               clientIdentity.Name,
		CertPEM:            clientIdentity.CertPEM(),
		KeyPKCS8:           keyDER,
		SourceNetwork:      tradelens.NetworkID,
		VerificationPolicy: fmt.Sprintf("AND('%s.peer','%s.peer')", tradelens.SellerOrg, tradelens.CarrierOrg),
		Ledger:             "default",
		Contract:           tradelens.ChaincodeName,
		Function:           tradelens.FnGetBillOfLading,
	}
	kit.SetSourceConfig(stl.ExportConfig())
	if err := deploy.SaveKit(*dir, kit); err != nil {
		return err
	}

	server, err := relay.NewTCPServer(stl.Relay, *listen)
	if err != nil {
		return err
	}
	// Lease-based discovery membership: registration is deduplicated per
	// address (a restart against the same deployment dir refreshes the
	// entry instead of appending a duplicate), kept fresh by heartbeat
	// re-announcement, and withdrawn on shutdown. If this process dies
	// without cleaning up, the lease lapses and discovery stops handing the
	// dead address out. Every renewal is one appended record, so a fleet of
	// heartbeating relayds sharing the deploy dir contends on a short append
	// apiece rather than whole-file rewrites.
	stopAnnounce, err := relay.Announce(registry, tradelens.NetworkID, server.Addr(), *leaseTTL, func(err error) {
		log.Printf("lease renewal failed (lease lapses if this persists): %v", err)
	})
	if err != nil {
		server.Close()
		return err
	}
	log.Printf("tradelens relay serving on %s (lease ttl %s); deployment artifacts in %s", server.Addr(), *leaseTTL, *dir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	stopAnnounce() // halt the heartbeat and deregister from discovery
	return server.Close()
}

// routeFlags collects repeated -route flags.
type routeFlags []string

func (f *routeFlags) String() string { return fmt.Sprint([]string(*f)) }

func (f *routeFlags) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// seedDemoData drives the STL lifecycle for the paper's po-1001 shipment:
// creation, booking, gate-in, and bill-of-lading issuance.
func seedDemoData(ctx context.Context, stl *core.Network) error {
	seller, err := tradelens.NewSellerApp(stl, "stl-seller-app")
	if err != nil {
		return err
	}
	carrier, err := tradelens.NewCarrierApp(stl, "stl-carrier-app")
	if err != nil {
		return err
	}
	if _, err := seller.CreateShipment(ctx, "po-1001", "Acme Exports", "Globex Imports", "4x40ft machinery"); err != nil {
		return err
	}
	if _, err := carrier.BookShipment(ctx, "po-1001", "Oceanic Lines"); err != nil {
		return err
	}
	if _, err := carrier.RecordGateIn(ctx, "po-1001"); err != nil {
		return err
	}
	return carrier.IssueBillOfLading(ctx, &tradelens.BillOfLading{
		BLID: "bl-7734", PORef: "po-1001", Carrier: "Oceanic Lines",
		Vessel: "MV Meridian", PortFrom: "Shanghai", PortTo: "Rotterdam",
		Goods: "4x40ft machinery", IssuedAt: time.Now(),
	})
}
