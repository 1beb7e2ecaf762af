// Multirelay: the paper's availability analysis (§5) made executable. The
// source network deploys redundant relays; the example crashes the primary
// mid-run and shows cross-network queries failing over to the standby —
// and, with health-aware discovery, shows failover stop wasting attempts
// on the dead primary after its first failure. It then takes both relays
// down to show the failure mode the paper attributes to relay DoS.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"repro/internal/apps/scenario"
	"repro/internal/apps/tradelens"
	"repro/internal/core"
	"repro/internal/relay"
)

const (
	primaryAddr = "stl-relay-primary"
	standbyAddr = "stl-relay-standby"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	hub := relay.NewHub()
	registry := relay.NewStaticRegistry()
	world, err := scenario.BuildWith(registry, hub)
	if err != nil {
		return err
	}

	// Redundant relays for STL: both addresses front the same relay
	// service (the paper's DoS mitigation: "adding redundant relays").
	hub.Attach(primaryAddr, world.STL.Relay)
	hub.Attach(standbyAddr, world.STL.Relay)
	registry.Register(tradelens.NetworkID, primaryAddr, standbyAddr)
	hub.Attach(scenario.SWTRelayAddr, world.SWT.Relay)
	registry.Register("we-trade", scenario.SWTRelayAddr)

	actors, err := world.NewActors()
	if err != nil {
		return err
	}
	if _, err := actors.STLSeller.CreateShipment(ctx, "po-1001", "S", "B", "goods"); err != nil {
		return err
	}
	if _, err := actors.STLCarrier.BookShipment(ctx, "po-1001", "C"); err != nil {
		return err
	}
	if _, err := actors.STLCarrier.RecordGateIn(ctx, "po-1001"); err != nil {
		return err
	}
	if err := actors.STLCarrier.IssueBillOfLading(ctx, &tradelens.BillOfLading{
		BLID: "bl-1", PORef: "po-1001", Carrier: "C",
	}); err != nil {
		return err
	}

	spec := core.RemoteQuerySpec{
		Network:  tradelens.NetworkID,
		Contract: tradelens.ChaincodeName,
		Function: tradelens.FnGetBillOfLading,
		Args:     [][]byte{[]byte("po-1001")},
	}
	client := actors.SWTSeller.Client()

	fmt.Println("== both relays up ==")
	if _, err := client.RemoteQuery(ctx, spec); err != nil {
		return err
	}
	fmt.Println("   query served")

	fmt.Println("== primary relay crashed: service continues, waste stays bounded ==")
	hub.SetDown(primaryAddr, true)
	before := world.SWT.Relay.Stats().FanoutAttempts
	const postCrashQueries = 6
	for i := 0; i < postCrashQueries; i++ {
		if _, err := client.RemoteQuery(ctx, spec); err != nil {
			return fmt.Errorf("post-crash query %d failed: %w", i, err)
		}
	}
	attempts := world.SWT.Relay.Stats().FanoutAttempts - before
	if attempts > postCrashQueries+1 {
		return fmt.Errorf("dead primary retried %d times across %d queries; health demotion not working",
			attempts-postCrashQueries, postCrashQueries)
	}
	fmt.Printf("   %d queries served with %d transport attempts — the dead primary cost at most\n",
		postCrashQueries, attempts)
	fmt.Printf("   one wasted attempt before its health score demoted it (strict address-list\n")
	fmt.Printf("   order would have retried it first on every query: %d attempts)\n", 2*postCrashQueries)

	fmt.Println("== every relay hung, not crashed: the deadline bounds the stall ==")
	// Both relays wedged. A single relay that hangs after answering would
	// cost one query half its budget: an overdue attempt is abandoned for
	// the next address, and the hung one is then demoted like the crashed
	// primary.
	hub.SetDown(primaryAddr, false)
	hub.SetStall(primaryAddr, true)
	hub.SetStall(standbyAddr, true)
	deadlineCtx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
	start := time.Now()
	_, err = client.RemoteQuery(deadlineCtx, spec)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("expected deadline expiry against the hung relays, got %v", err)
	}
	fmt.Printf("   query returned in %s instead of hanging forever: %v\n",
		time.Since(start).Round(time.Millisecond), err)
	hub.SetStall(primaryAddr, false)
	hub.SetStall(standbyAddr, false)

	fmt.Println("== both relays down (the paper's DoS scenario) ==")
	hub.SetDown(primaryAddr, true)
	hub.SetDown(standbyAddr, true)
	_, err = client.RemoteQuery(ctx, spec)
	if err == nil {
		return errors.New("query succeeded with every relay down")
	}
	fmt.Printf("   query failed as expected: %v\n", err)

	fmt.Println("== primary restored ==")
	hub.SetDown(primaryAddr, false)
	if _, err := client.RemoteQuery(ctx, spec); err != nil {
		return err
	}
	fmt.Println("   service recovered")
	fmt.Println("done.")
	return nil
}
