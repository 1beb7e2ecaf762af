package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/scenario"
	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/cryptoutil"
	"repro/internal/deploy"
	"repro/internal/relay"
)

// hungListener accepts connections and reads them, but never writes: a
// relay that is reachable and never answers.
func hungListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestQueryRanksLiveRelayAheadOfHungOne: a hung relay registered ahead of a
// live one no longer fails a one-shot query. The probes before the query
// give the live address a round trip and the hung one a failure, so the
// query goes to the live relay and returns well inside its timeout.
func TestQueryRanksLiveRelayAheadOfHungOne(t *testing.T) {
	ctx := context.Background()
	d, err := scenario.BuildTCPChain(0, 1)
	if err != nil {
		t.Fatalf("BuildTCPChain: %v", err)
	}
	defer d.Close()
	actors, err := d.World.NewActors()
	if err != nil {
		t.Fatalf("NewActors: %v", err)
	}
	if err := scenario.SeedShipments(ctx, actors, "po-1001"); err != nil {
		t.Fatalf("SeedShipments: %v", err)
	}

	dir := t.TempDir()
	client := actors.SWTSeller.Client().Identity()
	keyDER, err := cryptoutil.MarshalPrivateKey(client.Key)
	if err != nil {
		t.Fatalf("MarshalPrivateKey: %v", err)
	}
	kit := &deploy.ClientKit{
		RequestingNetwork:  wetrade.NetworkID,
		Org:                client.OrgID,
		Name:               client.Name,
		CertPEM:            client.CertPEM(),
		KeyPKCS8:           keyDER,
		SourceNetwork:      tradelens.NetworkID,
		VerificationPolicy: fmt.Sprintf("AND('%s.peer','%s.peer')", tradelens.SellerOrg, tradelens.CarrierOrg),
		Ledger:             "default",
		Contract:           tradelens.ChaincodeName,
		Function:           tradelens.FnGetBillOfLading,
	}
	kit.SetSourceConfig(d.World.STL.ExportConfig())
	if err := deploy.SaveKit(dir, kit); err != nil {
		t.Fatalf("SaveKit: %v", err)
	}
	registry := relay.NewJournalRegistry(deploy.JournalPath(dir))
	if err := registry.Register(tradelens.NetworkID, hungListener(t), d.STLServers[0].Addr()); err != nil {
		t.Fatalf("Register: %v", err)
	}

	const timeout = 4 * time.Second
	start := time.Now()
	if err := runQuery([]string{"-dir", dir, "-po", "po-1001", "-timeout", timeout.String()}); err != nil {
		t.Fatalf("query with a hung relay listed first: %v", err)
	}
	if took := time.Since(start); took > timeout/2 {
		t.Fatalf("query took %s of its %s timeout", took, timeout)
	}
}
