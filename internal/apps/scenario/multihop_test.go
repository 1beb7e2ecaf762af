package scenario

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/proof"
	"repro/internal/relay"
	"repro/internal/wire"
)

// seedBillOfLading drives the STL-side document flow so the chain tests
// have a bill of lading to fetch.
func seedBillOfLading(t *testing.T, w *TradeWorld, poRef string) {
	t.Helper()
	actors, err := w.NewActors()
	if err != nil {
		t.Fatalf("NewActors: %v", err)
	}
	ctx := context.Background()
	if _, err := actors.STLSeller.CreateShipment(ctx, poRef, "S", "B", "goods"); err != nil {
		t.Fatalf("CreateShipment: %v", err)
	}
	if _, err := actors.STLCarrier.BookShipment(ctx, poRef, "C"); err != nil {
		t.Fatalf("BookShipment: %v", err)
	}
	if _, err := actors.STLCarrier.RecordGateIn(ctx, poRef); err != nil {
		t.Fatalf("RecordGateIn: %v", err)
	}
	if err := actors.STLCarrier.IssueBillOfLading(ctx, &tradelens.BillOfLading{
		BLID: "bl-" + poRef, PORef: poRef, Carrier: "C",
	}); err != nil {
		t.Fatalf("IssueBillOfLading: %v", err)
	}
}

// chainQuery builds a raw bill-of-lading query for the chain tests.
func chainQuery(ri *rawInvoker, poRef string) (*wire.Query, error) {
	nonce, err := cryptoutil.NewNonce()
	if err != nil {
		return nil, err
	}
	return &wire.Query{
		RequestingNetwork: wetrade.NetworkID,
		TargetNetwork:     tradelens.NetworkID,
		Ledger:            "default",
		Contract:          tradelens.ChaincodeName,
		Function:          tradelens.FnGetBillOfLading,
		Args:              [][]byte{[]byte(poRef)},
		PolicyExpr:        stlPolicyExpr(),
		RequesterCertPEM:  ri.certPEM,
		RequesterOrg:      wetrade.SellerBankOrg,
		Nonce:             nonce,
	}, nil
}

// TestChainThreeHopProofEndToEnd is the tentpole acceptance test: a query
// answered over three transport legs (SWT → hub-1 → hub-2 → STL) yields a
// proof the origin verifies end to end — two hop pins, nearest the source
// first — and any single-hop pin mutation fails verification. Invokes
// through the same chain stay exactly-once under idempotent retry.
func TestChainThreeHopProofEndToEnd(t *testing.T) {
	d, err := BuildTCPChain(2, 1)
	if err != nil {
		t.Fatalf("BuildTCPChain: %v", err)
	}
	defer d.Close()
	w := d.World
	if err := DeployAuditLog(w); err != nil {
		t.Fatalf("DeployAuditLog: %v", err)
	}
	seedBillOfLading(t, w, "po-chain-1")
	ctx := context.Background()

	// The application view: RemoteQuery routes through the chain, verifies
	// the hop chain client-side, and reports the authenticated path.
	client, err := core.NewClient(w.SWT, wetrade.SellerBankOrg, "chain-client")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	data, err := client.RemoteQuery(ctx, core.RemoteQuerySpec{
		Network:  tradelens.NetworkID,
		Contract: tradelens.ChaincodeName,
		Function: tradelens.FnGetBillOfLading,
		Args:     [][]byte{[]byte("po-chain-1")},
	})
	if err != nil {
		t.Fatalf("RemoteQuery over chain: %v", err)
	}
	if len(data.Path) != 2 {
		t.Fatalf("Path = %v, want 2 hops", data.Path)
	}
	for i, want := range []string{HubNetworkID(1), HubNetworkID(0)} {
		if data.Path[i].Network != want {
			t.Fatalf("Path[%d] = %q, want %q", i, data.Path[i].Network, want)
		}
	}
	if len(data.Result) == 0 {
		t.Fatal("empty result over chain")
	}

	// The wire view: any single-hop pin mutation makes verification fail.
	ri := newRawInvoker(t, w)
	q, err := chainQuery(ri, "po-chain-1")
	if err != nil {
		t.Fatalf("chainQuery: %v", err)
	}
	resp, err := w.SWT.Relay.Query(ctx, q)
	if err != nil {
		t.Fatalf("raw query over chain: %v", err)
	}
	if len(resp.HopPins) != 2 {
		t.Fatalf("pins = %d, want 2", len(resp.HopPins))
	}
	if _, err := proof.VerifyHopChainVia(q, resp, HubNetworkID(0)); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	for i := range resp.HopPins {
		for field, mutate := range map[string]func(p *wire.HopPin){
			"pin":       func(p *wire.HopPin) { p.Pin[0] ^= 0x01 },
			"signature": func(p *wire.HopPin) { p.Signature[0] ^= 0x01 },
			"network":   func(p *wire.HopPin) { p.Network = "evil-net" },
		} {
			mutated := *resp
			mutated.HopPins = append([]wire.HopPin(nil), resp.HopPins...)
			pin := &mutated.HopPins[i]
			pin.Pin = append([]byte(nil), pin.Pin...)
			pin.Signature = append([]byte(nil), pin.Signature...)
			mutate(pin)
			if _, err := proof.VerifyHopChainVia(q, &mutated, HubNetworkID(0)); err == nil {
				t.Fatalf("chain with hop %d %s mutated verified", i, field)
			}
		}
	}
	stripped := *resp
	stripped.HopPins = nil
	if _, err := proof.VerifyHopChainVia(q, &stripped, HubNetworkID(0)); err == nil {
		t.Fatal("stripped chain verified")
	}

	// Exactly-once through the chain: the same idempotency key retried at
	// the origin commits once on the source ledger; the duplicate replays.
	spec := core.RemoteQuerySpec{
		Network: tradelens.NetworkID, Contract: "auditcc", Function: "Append",
		Args:      [][]byte{[]byte("po-chain-inv"), []byte("entry;")},
		RequestID: "chain-inv-1",
	}
	first, err := client.RemoteInvoke(ctx, spec)
	if err != nil {
		t.Fatalf("chain invoke: %v", err)
	}
	retry, err := client.RemoteInvoke(ctx, spec)
	if err != nil {
		t.Fatalf("chain invoke retry: %v", err)
	}
	if !bytes.Equal(first.Result, retry.Result) {
		t.Fatalf("retry result %q != original %q", retry.Result, first.Result)
	}
	if valid, _ := committedInvokes(t, w, invokeTxID("chain-inv-1", client.Identity().CertPEM())); valid != 1 {
		t.Fatalf("%d valid commits over chain, want exactly 1", valid)
	}

	// Every hub forwarded and counted: queries and invokes both.
	for i, tier := range d.Hubs {
		s := tier.Servers[0].Relay.Stats()
		if s.ForwardedQueries == 0 || s.ForwardedInvokes == 0 {
			t.Fatalf("hub %d stats = %+v, want forwarded traffic", i, s)
		}
	}
}

// TestChainPartitionHealChaos is the partition/heal chaos scenario: a
// three-network TCP chain (SWT edge → hub-1 ×2 → hub-2 ×2 → STL) with the
// origin resolving hub addresses through a live journal registry, while a
// background client queries through the full path. Mid-path hub replicas
// are killed and restarted mid-run: traffic must re-route through the
// alternate replica with zero client-visible failures, invokes must stay
// exactly-once on the source ledger (including an ambiguous retry spanning
// a partition), and discovery must never go dark while replicas churn.
func TestChainPartitionHealChaos(t *testing.T) {
	d, err := BuildTCPChain(2, 2)
	if err != nil {
		t.Fatalf("BuildTCPChain: %v", err)
	}
	defer d.Close()
	w := d.World
	if err := DeployAuditLog(w); err != nil {
		t.Fatalf("DeployAuditLog: %v", err)
	}
	seedBillOfLading(t, w, "po-chaos-1")
	ctx := context.Background()

	// The origin edge relay discovers hub-1 through a journal registry the
	// hub replicas heartbeat into — restartstorm's discovery pattern bent
	// around the first chain leg. The tiny threshold makes the heartbeats
	// themselves roll generations in-band.
	journal := relay.NewJournalRegistry(filepath.Join(t.TempDir(), "registry.jsonl"), relay.WithCompactBytes(512))
	const ttl = 2 * time.Second
	for _, srv := range d.Hubs[0].Servers {
		stop, err := relay.Announce(journal, HubNetworkID(0), srv.Addr(), ttl, func(err error) {
			t.Errorf("heartbeat: %v", err)
		})
		if err != nil {
			t.Fatalf("Announce(%s): %v", srv.Addr(), err)
		}
		defer stop()
	}

	edgeRoutes := relay.NewRouteTable()
	edgeRoutes.Set(tradelens.NetworkID, HubNetworkID(0))
	edgeRoutes.SetMaxHops(3)
	edge := relay.New(wetrade.NetworkID, journal, d.Transport)
	edge.SetRoutes(edgeRoutes)
	ri := newRawInvoker(t, w)

	// Background load: continuous queries through the full chain for the
	// whole chaos window. Every response must verify via hub-1.
	var (
		queryOK   atomic.Int64
		queryErrs = make(chan string, 64)
		done      = make(chan struct{})
		wg        sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			q, err := chainQuery(ri, "po-chaos-1")
			if err != nil {
				queryErrs <- err.Error()
				return
			}
			resp, err := edge.Query(ctx, q)
			switch {
			case err != nil:
				queryErrs <- err.Error()
			case resp.Error != "":
				queryErrs <- resp.Error
			default:
				if _, err := proof.VerifyHopChainVia(q, resp, HubNetworkID(0)); err != nil {
					queryErrs <- err.Error()
				} else {
					queryOK.Add(1)
				}
			}
		}
	}()

	// Discovery soak: hub-1 resolution through the journal must never go
	// dark while replicas churn and heartbeats roll generations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(10 * time.Millisecond):
			}
			if _, err := journal.Resolve(HubNetworkID(0)); err != nil {
				queryErrs <- "discovery went dark: " + err.Error()
			}
		}
	}()

	invoke := func(requestID, logKey, entry string) *wire.QueryResponse {
		t.Helper()
		nonce := cryptoutil.Digest([]byte("chaos-nonce"), []byte(requestID))[:cryptoutil.NonceSize]
		q := ri.query(requestID, nonce, logKey, entry)
		resp, err := edge.Invoke(ctx, q)
		if err != nil {
			t.Fatalf("invoke %s: %v", requestID, err)
		}
		if resp.Error != "" {
			t.Fatalf("invoke %s: remote error %s", requestID, resp.Error)
		}
		return resp
	}
	assertOnce := func(requestID string) {
		t.Helper()
		if valid, _ := committedInvokes(t, w, invokeTxID(requestID, ri.certPEM)); valid != 1 {
			t.Fatalf("invoke %s: %d valid commits, want exactly 1", requestID, valid)
		}
	}

	// Phase 1 — healthy chain: a first invoke lands through both tiers.
	firstResp := invoke("chaos-pre", "po-chaos-log", "pre;")
	assertOnce("chaos-pre")

	// Phase 2 — partition: kill one replica in each tier (the mid-path
	// hub-2 kill is the interesting one: the failover happens inside the
	// chain, at hub-1's fan-out, invisible to the origin).
	if err := d.Hubs[1].Servers[0].Kill(); err != nil {
		t.Fatalf("kill hub-2 replica: %v", err)
	}
	if err := d.Hubs[0].Servers[0].Kill(); err != nil {
		t.Fatalf("kill hub-1 replica: %v", err)
	}
	for i := 0; i < 3; i++ {
		invoke(fmt.Sprintf("chaos-part-%d", i), "po-chaos-log", fmt.Sprintf("part-%d;", i))
		assertOnce(fmt.Sprintf("chaos-part-%d", i))
	}
	// Ambiguous retry across the partition: the phase-1 key replays the
	// committed outcome through the surviving replicas.
	retryResp := invoke("chaos-pre", "po-chaos-log", "pre;")
	if !bytes.Equal(ri.open(t, ri.query("chaos-pre", cryptoutil.Digest([]byte("chaos-nonce"), []byte("chaos-pre"))[:cryptoutil.NonceSize], "po-chaos-log", "pre;"), retryResp),
		ri.open(t, ri.query("chaos-pre", cryptoutil.Digest([]byte("chaos-nonce"), []byte("chaos-pre"))[:cryptoutil.NonceSize], "po-chaos-log", "pre;"), firstResp)) {
		t.Fatal("partition retry diverged from original commit")
	}
	assertOnce("chaos-pre")

	// Phase 3 — heal: restart the killed replicas, then kill the replicas
	// that carried the partition traffic. The healed ones must take over.
	for _, tier := range d.Hubs {
		if err := tier.Servers[0].Restart(); err != nil {
			t.Fatalf("restart %s: %v", tier.NetworkID, err)
		}
	}
	if err := d.Hubs[1].Servers[1].Kill(); err != nil {
		t.Fatalf("kill alternate hub-2 replica: %v", err)
	}
	for i := 0; i < 3; i++ {
		invoke(fmt.Sprintf("chaos-heal-%d", i), "po-chaos-log", fmt.Sprintf("heal-%d;", i))
		assertOnce(fmt.Sprintf("chaos-heal-%d", i))
	}
	if err := d.Hubs[1].Servers[1].Restart(); err != nil {
		t.Fatalf("restart alternate hub-2 replica: %v", err)
	}

	close(done)
	wg.Wait()
	close(queryErrs)
	for msg := range queryErrs {
		t.Errorf("background query failure: %s", msg)
	}
	if queryOK.Load() == 0 {
		t.Fatal("background querier never completed a query")
	}

	// The final ledger state is the exact append sequence — no duplicate,
	// no loss. Appends are ordered by commit, so check the multiset by
	// total length and the pre; prefix committed first.
	got, err := w.STLAdmin.Evaluate("auditcc", "Read", []byte("po-chaos-log"))
	if err != nil {
		t.Fatalf("Read audit log: %v", err)
	}
	want := len("pre;") + len("part-0;part-1;part-2;") + len("heal-0;heal-1;heal-2;")
	if len(got) != want {
		t.Fatalf("audit log = %q (%d bytes), want %d bytes of unique appends", got, len(got), want)
	}
	if !bytes.HasPrefix(got, []byte("pre;")) {
		t.Fatalf("audit log = %q, want pre; first", got)
	}
}

// TestChainSourceReplicaFailover: a one-hub chain fronts STL with two
// replicas, so the hub fails over between source replicas. With the primary
// source relay killed, the same query still returns the same bytes through
// the hub (one pin), and an invoke issued after the kill commits exactly
// once through the surviving replica.
func TestChainSourceReplicaFailover(t *testing.T) {
	d, err := BuildTCPChain(1, 2)
	if err != nil {
		t.Fatalf("BuildTCPChain: %v", err)
	}
	defer d.Close()
	w := d.World
	if len(d.STLServers) != 2 {
		t.Fatalf("STL servers = %d, want 2", len(d.STLServers))
	}
	if err := DeployAuditLog(w); err != nil {
		t.Fatalf("DeployAuditLog: %v", err)
	}
	seedBillOfLading(t, w, "po-replica-1")
	ctx := context.Background()
	client, err := core.NewClient(w.SWT, wetrade.SellerBankOrg, "replica-client")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	query := func(stage string) []byte {
		t.Helper()
		data, err := client.RemoteQuery(ctx, core.RemoteQuerySpec{
			Network: tradelens.NetworkID, Contract: tradelens.ChaincodeName,
			Function: tradelens.FnGetBillOfLading, Args: [][]byte{[]byte("po-replica-1")},
		})
		if err != nil {
			t.Fatalf("RemoteQuery %s: %v", stage, err)
		}
		if len(data.Path) != 1 || data.Path[0].Network != HubNetworkID(0) {
			t.Fatalf("%s Path = %v, want one pin by %s", stage, data.Path, HubNetworkID(0))
		}
		return data.Result
	}
	first := query("before the kill")
	if len(first) == 0 {
		t.Fatal("empty result before the kill")
	}

	if err := d.STLServers[0].Kill(); err != nil {
		t.Fatalf("Kill primary STL relay: %v", err)
	}
	if failover := query("after the kill"); !bytes.Equal(failover, first) {
		t.Fatalf("failover result %q != original %q", failover, first)
	}

	if _, err := client.RemoteInvoke(ctx, core.RemoteQuerySpec{
		Network: tradelens.NetworkID, Contract: AuditChaincodeName, Function: "Append",
		Args:      [][]byte{[]byte("po-replica-log"), []byte("after-kill;")},
		RequestID: "replica-inv-1",
	}); err != nil {
		t.Fatalf("RemoteInvoke after the kill: %v", err)
	}
	if valid, _ := committedInvokes(t, w, invokeTxID("replica-inv-1", client.Identity().CertPEM())); valid != 1 {
		t.Fatalf("ledger holds %d valid commits, want exactly 1", valid)
	}
}
