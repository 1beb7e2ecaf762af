package core_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/apps/scenario"
	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/core"
)

// TestRemoteQueryBatchSharesRecipientOverTCP runs one client's
// RemoteQueryBatch at the default parallelism over the trade world's real
// TCP deployment, twice: every in-flight query opens its envelopes through
// the client's one Recipient, first while the session points are being
// agreed and then from the remembered agreements. Under -race this is the
// shared opener's data-race proof; every answer must still be its own
// bill of lading.
func TestRemoteQueryBatchSharesRecipientOverTCP(t *testing.T) {
	d, err := scenario.BuildTCP(0)
	if err != nil {
		t.Fatalf("BuildTCP: %v", err)
	}
	defer d.Close()
	actors, err := d.World.NewActors()
	if err != nil {
		t.Fatalf("NewActors: %v", err)
	}
	ctx := context.Background()
	refs := make([]string, core.DefaultBatchParallelism)
	for i := range refs {
		refs[i] = fmt.Sprintf("po-recipient-%d", i)
	}
	if err := scenario.SeedShipments(ctx, actors, refs...); err != nil {
		t.Fatalf("SeedShipments: %v", err)
	}
	client, err := core.NewClient(d.World.SWT, wetrade.SellerBankOrg, "tcp-batch-recipient")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	specs := make([]core.RemoteQuerySpec, 2*len(refs))
	for i := range specs {
		specs[i] = core.RemoteQuerySpec{
			Network: tradelens.NetworkID, Contract: tradelens.ChaincodeName,
			Function: tradelens.FnGetBillOfLading, Args: [][]byte{[]byte(refs[i%len(refs)])},
		}
	}
	for round := 0; round < 2; round++ {
		for i, res := range client.RemoteQueryBatch(ctx, specs) {
			if res.Err != nil {
				t.Fatalf("round %d spec %d: %v", round, i, res.Err)
			}
			if want := refs[i%len(refs)]; !bytes.Contains(res.Data.Result, []byte(want)) {
				t.Fatalf("round %d spec %d result = %q, want the bill of lading of %s", round, i, res.Data.Result, want)
			}
		}
	}
}
