package core_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/apps/scenario"
	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/core"
)

// TestConcurrentRemoteQueriesShareRecipientOverTCP runs 8 goroutines of one
// client's RemoteQuery over the trade world's real TCP deployment, twice:
// every in-flight query opens its envelopes through the client's one
// Recipient, first while the session points are being agreed and then from
// the remembered agreements. Under -race this is the shared opener's
// data-race proof; every answer must still be its own bill of lading.
func TestConcurrentRemoteQueriesShareRecipientOverTCP(t *testing.T) {
	d, err := scenario.BuildTCPChain(0, 1)
	if err != nil {
		t.Fatalf("BuildTCPChain: %v", err)
	}
	defer d.Close()
	actors, err := d.World.NewActors()
	if err != nil {
		t.Fatalf("NewActors: %v", err)
	}
	ctx := context.Background()
	refs := make([]string, 8)
	for i := range refs {
		refs[i] = fmt.Sprintf("po-recipient-%d", i)
	}
	if err := scenario.SeedShipments(ctx, actors, refs...); err != nil {
		t.Fatalf("SeedShipments: %v", err)
	}
	client, err := core.NewClient(d.World.SWT, wetrade.SellerBankOrg, "tcp-concurrent-recipient")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	for round := 0; round < 2; round++ {
		errs := make([]error, 2*len(refs))
		var wg sync.WaitGroup
		for g := range refs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Each goroutine asks for two bills of lading, so every one is
				// in flight twice per round.
				for _, i := range []int{g, g + len(refs)} {
					want := refs[i%len(refs)]
					data, err := client.RemoteQuery(ctx, core.RemoteQuerySpec{
						Network: tradelens.NetworkID, Contract: tradelens.ChaincodeName,
						Function: tradelens.FnGetBillOfLading, Args: [][]byte{[]byte(want)},
					})
					switch {
					case err != nil:
						errs[i] = err
					case !bytes.Contains(data.Result, []byte(want)):
						errs[i] = fmt.Errorf("result = %q, want the bill of lading of %s", data.Result, want)
					}
				}
			}(g)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d query %d: %v", round, i, err)
			}
		}
	}
}
