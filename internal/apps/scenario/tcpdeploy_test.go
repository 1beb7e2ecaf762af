package scenario

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/core"
)

// TestBuildTCPQueryAndChurn exercises the TCP deployment the way the load
// generator does: seed STL, query a bill of lading cross-network over real
// sockets, kill the primary STL relay and verify the redundant relay keeps
// serving, then restart the dead relay on its original address and verify
// it serves again.
func TestBuildTCPQueryAndChurn(t *testing.T) {
	d, err := BuildTCPChain(0, 2)
	if err != nil {
		t.Fatalf("BuildTCPChain: %v", err)
	}
	defer d.Close()
	w := d.World
	if len(d.STLServers) != 2 {
		t.Fatalf("STL servers = %d, want 2", len(d.STLServers))
	}

	actors, err := w.NewActors()
	if err != nil {
		t.Fatalf("NewActors: %v", err)
	}
	ctx := context.Background()
	if err := SeedShipments(ctx, actors, "po-tcp-1"); err != nil {
		t.Fatalf("SeedShipments: %v", err)
	}

	client, err := core.NewClient(w.SWT, wetrade.SellerBankOrg, "tcp-client")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	spec := core.RemoteQuerySpec{
		Network: tradelens.NetworkID, Contract: tradelens.ChaincodeName,
		Function: tradelens.FnGetBillOfLading, Args: [][]byte{[]byte("po-tcp-1")},
	}
	first, err := client.RemoteQuery(ctx, spec)
	if err != nil {
		t.Fatalf("RemoteQuery over TCP: %v", err)
	}
	if len(first.Result) == 0 || !bytes.Contains(first.Result, []byte("po-tcp-1")) {
		t.Fatalf("result = %q, want the seeded bill of lading", first.Result)
	}

	// Primary killed: the redundant relay must absorb the traffic.
	if err := d.STLServers[0].Kill(); err != nil {
		t.Fatalf("Kill primary: %v", err)
	}
	failover, err := client.RemoteQuery(ctx, spec)
	if err != nil {
		t.Fatalf("RemoteQuery after primary kill: %v", err)
	}
	if !bytes.Equal(failover.Result, first.Result) {
		t.Fatalf("failover result %q != original %q", failover.Result, first.Result)
	}

	// Restart on the original address: the deployment is whole again and
	// the revived listener really answers (kill the standby to force it).
	if err := d.STLServers[0].Restart(); err != nil {
		t.Fatalf("Restart primary: %v", err)
	}
	if err := d.STLServers[1].Kill(); err != nil {
		t.Fatalf("Kill standby: %v", err)
	}
	revived, err := client.RemoteQuery(ctx, spec)
	if err != nil {
		t.Fatalf("RemoteQuery after restart: %v", err)
	}
	if !bytes.Equal(revived.Result, first.Result) {
		t.Fatalf("post-restart result %q != original %q", revived.Result, first.Result)
	}
}

// TestBuildTCPInvokeExactlyOnce proves writable invokes work over the TCP
// deployment and land exactly one valid commit, the precondition for the
// load generator's churn audit.
func TestBuildTCPInvokeExactlyOnce(t *testing.T) {
	d, err := BuildTCPChain(0, 2)
	if err != nil {
		t.Fatalf("BuildTCPChain: %v", err)
	}
	defer d.Close()
	w := d.World
	if err := DeployAuditLog(w); err != nil {
		t.Fatalf("DeployAuditLog: %v", err)
	}
	client, err := core.NewClient(w.SWT, wetrade.SellerBankOrg, "tcp-invoker")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	ctx := context.Background()
	spec := core.RemoteQuerySpec{
		Network: tradelens.NetworkID, Contract: AuditChaincodeName, Function: "Append",
		Args:      [][]byte{[]byte("po-tcp-9"), []byte("shipped;")},
		RequestID: "tcp-eo-1",
	}
	first, err := client.RemoteInvoke(ctx, spec)
	if err != nil {
		t.Fatalf("RemoteInvoke over TCP: %v", err)
	}
	// Retry under the same idempotency key after killing the relay that
	// served the commit: ledger replay, not re-execution.
	if err := d.STLServers[0].Kill(); err != nil {
		t.Fatalf("Kill primary: %v", err)
	}
	retry, err := client.RemoteInvoke(ctx, spec)
	if err != nil {
		t.Fatalf("retry RemoteInvoke: %v", err)
	}
	if !bytes.Equal(first.Result, retry.Result) {
		t.Fatalf("retry result %q != original %q", retry.Result, first.Result)
	}
	valid, _ := committedInvokes(t, w, invokeTxID("tcp-eo-1", client.Identity().CertPEM()))
	if valid != 1 {
		t.Fatalf("ledger holds %d valid commits, want exactly 1", valid)
	}
}

// TestBuildTCPBatchedAttestation drives the Merkle-batching window over the
// real TCP deployment: three concurrent cold queries through the primary
// STL relay share one attestation window, and every client's independent
// proof verification accepts its leaf + inclusion proof end to end.
func TestBuildTCPBatchedAttestation(t *testing.T) {
	const width = 3
	d, err := BuildTCPChain(0, 1)
	if err != nil {
		t.Fatalf("BuildTCPChain: %v", err)
	}
	defer d.Close()
	w := d.World
	if w.STL.Driver == nil {
		t.Fatal("primary STL relay carries no driver handle")
	}
	w.STL.Driver.ConfigureAttestationBatching(time.Second, width)

	actors, err := w.NewActors()
	if err != nil {
		t.Fatalf("NewActors: %v", err)
	}
	ctx := context.Background()
	refs := make([]string, width)
	for i := range refs {
		refs[i] = fmt.Sprintf("po-batch-%d", i)
	}
	if err := SeedShipments(ctx, actors, refs...); err != nil {
		t.Fatalf("SeedShipments: %v", err)
	}
	client, err := core.NewClient(w.SWT, wetrade.SellerBankOrg, "tcp-batch-client")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}

	results := make([]*core.RemoteData, width)
	errs := make([]error, width)
	var wg sync.WaitGroup
	for i := 0; i < width; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = client.RemoteQuery(ctx, core.RemoteQuerySpec{
				Network: tradelens.NetworkID, Contract: tradelens.ChaincodeName,
				Function: tradelens.FnGetBillOfLading, Args: [][]byte{[]byte(refs[i])},
			})
		}(i)
	}
	wg.Wait()
	for i := 0; i < width; i++ {
		if errs[i] != nil {
			t.Fatalf("RemoteQuery %d over TCP: %v", i, errs[i])
		}
		if !bytes.Contains(results[i].Result, []byte(refs[i])) {
			t.Fatalf("result %d = %q", i, results[i].Result)
		}
		for _, el := range results[i].Bundle.Elements {
			if el.BatchSize != width {
				t.Fatalf("query %d element batch size = %d, want %d", i, el.BatchSize, width)
			}
		}
	}
}
