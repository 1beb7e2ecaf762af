package scenario

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/core"
	"repro/internal/relay"
)

// TestRestartStormThroughJournalRegistry drives the full §5
// redundant-relay deployment through one append-only journal registry
// under storm conditions: a fleet of relay addresses heartbeating on
// aggressive TTLs, extra relays churning through announce/deregister
// restart cycles, and every one of those appends able to roll the journal
// generation in-band underneath the rest — while a cross-network client keeps
// resolving, querying and invoking. The PR 3 suite's invariants must hold
// throughout: every invoke commits exactly once on the source ledger
// (failover retries answered by ledger replay, never re-execution), and
// health-aware ordering keeps demoting the dead primary (breaker skips
// accounted, no wasted attempts) even as the registry file it resolves
// from is rewritten generation after generation.
func TestRestartStormThroughJournalRegistry(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "registry.jsonl")
	// A tiny compaction threshold makes the appends force many generation
	// rollovers within the test window.
	journal := relay.NewJournalRegistry(journalPath, relay.WithCompactBytes(512))
	hub := relay.NewHub()
	w, err := BuildWith(journal, hub)
	if err != nil {
		t.Fatalf("BuildWith: %v", err)
	}
	if err := DeployAuditLog(w); err != nil {
		t.Fatalf("DeployAuditLog: %v", err)
	}
	relayB := relay.New(tradelens.NetworkID, journal, hub)
	relayB.RegisterDriver(tradelens.NetworkID, relay.NewFabricDriver(w.STL.Fabric, "default"))
	hub.Attach(STLRelayAddr, w.STL.Relay)
	hub.Attach(STLRelayAddrB, relayB)
	hub.Attach(SWTRelayAddr, w.SWT.Relay)

	// The steady fleet: both STL relays and the SWT relay heartbeat their
	// leases through the shared journal. Heartbeats
	// every ~666ms are aggressive for a registry while leaving a full
	// 2×heartbeat of renewal slack, so a loaded -race CI scheduler stalling
	// a goroutine cannot lapse a steady lease spuriously — the journal
	// churn the test needs comes from the storm announcers and the
	// compactions their appends trigger, not from TTL brinkmanship.
	const ttl = 2 * time.Second
	var stops []func()
	for _, member := range []struct{ network, addr string }{
		{tradelens.NetworkID, STLRelayAddr},
		{tradelens.NetworkID, STLRelayAddrB},
		{wetrade.NetworkID, SWTRelayAddr},
	} {
		stop, err := relay.Announce(journal, member.network, member.addr, ttl, nil)
		if err != nil {
			t.Fatalf("Announce(%s): %v", member.addr, err)
		}
		stops = append(stops, stop)
	}
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	// The restart storm: extra relay addresses (served by relay B) cycling
	// through announce → heartbeat → deregister, like relayd processes
	// crash-looping against the shared deployment dir.
	stormDone := make(chan struct{})
	var stormWG sync.WaitGroup
	for i := 0; i < 3; i++ {
		addr := fmt.Sprintf("stl-storm-%d:9090", i)
		hub.Attach(addr, relayB)
		stormWG.Add(1)
		go func(addr string) {
			defer stormWG.Done()
			for {
				stop, err := relay.Announce(journal, tradelens.NetworkID, addr, ttl, nil)
				if err != nil {
					t.Errorf("storm announce %s: %v", addr, err)
					return
				}
				select {
				case <-stormDone:
					stop()
					return
				case <-time.After(30 * time.Millisecond):
					stop() // restart: deregister and come right back
				}
			}
		}(addr)
	}
	defer func() {
		close(stormDone)
		stormWG.Wait()
	}()

	// Seed the B/L so queries have something to fetch.
	actors, err := w.NewActors()
	if err != nil {
		t.Fatalf("NewActors: %v", err)
	}
	ctx := context.Background()
	if _, err := actors.STLSeller.CreateShipment(ctx, "po-1001", "S", "B", "goods"); err != nil {
		t.Fatalf("CreateShipment: %v", err)
	}
	if _, err := actors.STLCarrier.BookShipment(ctx, "po-1001", "C"); err != nil {
		t.Fatalf("BookShipment: %v", err)
	}
	if _, err := actors.STLCarrier.RecordGateIn(ctx, "po-1001"); err != nil {
		t.Fatalf("RecordGateIn: %v", err)
	}
	if err := actors.STLCarrier.IssueBillOfLading(ctx, &tradelens.BillOfLading{
		BLID: "bl-1", PORef: "po-1001", Carrier: "C",
	}); err != nil {
		t.Fatalf("IssueBillOfLading: %v", err)
	}

	client, err := core.NewClient(w.SWT, wetrade.SellerBankOrg, "storm-client")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}

	// Soak: let heartbeats, restart cycles and compactions churn for many
	// generations while discovery must stay continuously resolvable — a
	// reader tailing mid-compaction never goes dark and never loses the
	// steady members.
	soakUntil := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(soakUntil) {
		addrs, err := journal.Resolve(tradelens.NetworkID)
		if err != nil {
			t.Fatalf("discovery went dark mid-storm: %v", err)
		}
		for _, steady := range []string{STLRelayAddr, STLRelayAddrB} {
			found := false
			for _, a := range addrs {
				if a == steady {
					found = true
				}
			}
			if !found {
				t.Fatalf("steady member %s vanished mid-storm: %v", steady, addrs)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Exactly-once under churn: unique-key invokes land exactly one valid
	// commit each while heartbeats and compactions race the resolutions.
	for i := 0; i < 4; i++ {
		spec := core.RemoteQuerySpec{
			Network: tradelens.NetworkID, Contract: "auditcc", Function: "Append",
			Args:      [][]byte{[]byte(fmt.Sprintf("po-storm-%d", i)), []byte("entry;")},
			RequestID: fmt.Sprintf("storm-unique-%d", i),
		}
		if _, err := client.RemoteInvoke(ctx, spec); err != nil {
			t.Fatalf("storm invoke %d: %v", i, err)
		}
		valid, _ := committedInvokes(t, w, invokeTxID(spec.RequestID, client.Identity().CertPEM()))
		if valid != 1 {
			t.Fatalf("invoke %d: %d valid commits, want exactly 1", i, valid)
		}
	}

	// Failover retry: commit through the fleet, kill the primary, retry
	// the ambiguous outcome under the same idempotency key. The ledger
	// anchor (not any relay's memory) must collapse it to one commit, and
	// the retry must be answered by replay.
	retrySpec := core.RemoteQuerySpec{
		Network: tradelens.NetworkID, Contract: "auditcc", Function: "Append",
		Args:      [][]byte{[]byte("po-storm-retry"), []byte("shipped;")},
		RequestID: "storm-retry",
	}
	first, err := client.RemoteInvoke(ctx, retrySpec)
	if err != nil {
		t.Fatalf("pre-failover invoke: %v", err)
	}
	hub.SetDown(STLRelayAddr, true)
	retry, err := client.RemoteInvoke(ctx, retrySpec)
	if err != nil {
		t.Fatalf("failover retry: %v", err)
	}
	if !bytes.Equal(first.Result, retry.Result) {
		t.Fatalf("failover retry result %q != original %q", retry.Result, first.Result)
	}
	valid, _ := committedInvokes(t, w, invokeTxID("storm-retry", client.Identity().CertPEM()))
	if valid != 1 {
		t.Fatalf("retried invoke has %d valid commits, want exactly 1", valid)
	}
	if got, _ := w.STLAdmin.Evaluate("auditcc", "Read", []byte("po-storm-retry")); !bytes.Equal(got, []byte("shipped;")) {
		t.Fatalf("source state = %q, want single append", got)
	}

	// Health-ordering under churn: open the dead primary's breaker via
	// liveness probes, then repeated queries must never attempt it again —
	// every resolve demotes it and accounts the skip — even though the
	// registry those resolves read is being compacted and re-announced
	// continuously.
	for i := 0; i < 3; i++ {
		if err := w.SWT.Relay.Ping(ctx, STLRelayAddr); err == nil {
			t.Fatal("ping against the downed primary succeeded")
		}
	}
	querySpec := core.RemoteQuerySpec{
		Network:  tradelens.NetworkID,
		Contract: tradelens.ChaincodeName,
		Function: tradelens.FnGetBillOfLading,
		Args:     [][]byte{[]byte("po-1001")},
	}
	before := w.SWT.Relay.Stats()
	const queries = 6
	for i := 0; i < queries; i++ {
		if _, err := client.RemoteQuery(ctx, querySpec); err != nil {
			t.Fatalf("post-breaker query %d: %v", i, err)
		}
	}
	after := w.SWT.Relay.Stats()
	if got := after.FanoutAttempts - before.FanoutAttempts; got != queries {
		t.Fatalf("post-breaker attempts = %d, want %d (dead primary never attempted)", got, queries)
	}
	if got := after.BreakerSkips - before.BreakerSkips; got != queries {
		t.Fatalf("BreakerSkips delta = %d, want %d", got, queries)
	}

	// The storm actually exercised compaction: the generation pointer
	// exists and has advanced past the genesis journal.
	genData, err := os.ReadFile(journalPath + ".gen")
	if err != nil {
		t.Fatalf("no generation pointer after the storm (no append compacted?): %v", err)
	}
	gen, err := strconv.ParseUint(strings.TrimSpace(string(genData)), 10, 64)
	if err != nil || gen == 0 {
		t.Fatalf("generation = %q, %v, want >= 1", genData, err)
	}
}
