package loadgen

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/scenario"
	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/chaincode"
	"repro/internal/core"
	"repro/internal/peer"
	"repro/internal/policy"
	"repro/internal/relay"
	"repro/internal/syscc"
	"repro/internal/wire"
)

// clockChaincodeName is a nondeterministic contract: every peer that runs
// it answers with its own wall clock, so no two endorsers ever agree.
const clockChaincodeName = "clockcc"

// clockChaincode reads the clock ("Now") or writes it to state ("Stamp") —
// the classic nondeterministic chaincode bug.
var clockChaincode = chaincode.Func(func(stub chaincode.Stub) ([]byte, error) {
	if _, err := syscc.AuthorizeRelayRequest(stub, clockChaincodeName); err != nil {
		return nil, err
	}
	now := []byte(time.Now().Format(time.RFC3339Nano))
	if stub.Function() == "Stamp" {
		if err := stub.PutState("stamp", now); err != nil {
			return nil, err
		}
	}
	return now, nil
})

// TestNondeterministicChaincodeRefused deploys the clock contract on STL
// under a both-orgs policy and checks that divergence is refused, never
// attested or committed: a query fails with ErrDivergentResults instead of
// proving one peer's view; an invoke is refused before ordering, and so is
// its retry under the same request ID, leaving no commit for its TxID; and
// loadgen classes both failures as protocol errors, not availability.
func TestNondeterministicChaincodeRefused(t *testing.T) {
	w, err := scenario.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := w.STL.Fabric.Deploy(clockChaincodeName, clockChaincode,
		fmt.Sprintf("AND('%s','%s')", tradelens.SellerOrg, tradelens.CarrierOrg)); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	for _, fn := range []string{"Now", "Stamp"} {
		if err := w.STL.GrantAccess(w.STLAdmin, policy.AccessRule{
			Network: wetrade.NetworkID, Org: wetrade.SellerBankOrg,
			Chaincode: clockChaincodeName, Function: fn,
		}); err != nil {
			t.Fatalf("GrantAccess %s: %v", fn, err)
		}
	}
	client, err := core.NewClient(w.SWT, wetrade.SellerBankOrg, "clock-client")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	ctx := context.Background()

	_, queryErr := client.RemoteQuery(ctx, core.RemoteQuerySpec{
		Network: tradelens.NetworkID, Contract: clockChaincodeName, Function: "Now",
	})
	if queryErr == nil || !strings.Contains(queryErr.Error(), relay.ErrDivergentResults.Error()) {
		t.Fatalf("query err = %v, want %v", queryErr, relay.ErrDivergentResults)
	}

	blocks := w.STL.Fabric.AllPeers()[0].Blocks()
	height := blocks.Height()
	spec := core.RemoteQuerySpec{
		Network: tradelens.NetworkID, Contract: clockChaincodeName, Function: "Stamp",
		RequestID: "clock-stamp-1",
	}
	var invokeErr error
	for attempt := 0; attempt < 2; attempt++ {
		_, invokeErr = client.RemoteInvoke(ctx, spec)
		if invokeErr == nil || !strings.Contains(invokeErr.Error(), peer.ErrProposalMismatch.Error()) {
			t.Fatalf("invoke attempt %d err = %v, want %v", attempt, invokeErr, peer.ErrProposalMismatch)
		}
	}
	if got := blocks.Height(); got != height {
		t.Fatalf("ledger height %d -> %d: a divergent invoke reached ordering", height, got)
	}
	commits, err := scenario.CommitsByTxID(w.STL.Fabric)
	if err != nil {
		t.Fatalf("CommitsByTxID: %v", err)
	}
	txID := relay.InteropTxID(&wire.Query{
		RequestID:         spec.RequestID,
		RequestingNetwork: wetrade.NetworkID,
		RequesterCertPEM:  client.Identity().CertPEM(),
	})
	if c := commits[txID]; c != (scenario.Commits{}) {
		t.Fatalf("commits for %s = %+v, want none", txID, c)
	}

	for name, err := range map[string]error{"query": queryErr, "invoke": invokeErr} {
		if class := Classify(err); class != ErrClassProtocol {
			t.Fatalf("Classify(%s err) = %q, want %q", name, class, ErrClassProtocol)
		}
	}
}
