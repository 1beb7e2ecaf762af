package peer_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/apps/scenario"
	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/chaincode"
	"repro/internal/msp"
	"repro/internal/peer"
	"repro/internal/syscc"
)

// tradeWorldPeer builds the seeded trade world and returns it, one STL peer
// and the certificates of two SWT clients: one of the seller bank, the
// organization the world's access rule admits, and one of the buyer bank,
// which no rule admits.
func tradeWorldPeer(t *testing.T) (w *scenario.TradeWorld, p *peer.Peer, admitted, refused []byte) {
	t.Helper()
	var err error
	w, err = scenario.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	actors, err := w.NewActors()
	if err != nil {
		t.Fatalf("NewActors: %v", err)
	}
	if err := scenario.SeedShipments(context.Background(), actors, "po-1"); err != nil {
		t.Fatalf("SeedShipments: %v", err)
	}
	// A cross-chaincode caller: reads a shipment through TradeLensCC.
	proxy := chaincode.Func(func(stub chaincode.Stub) ([]byte, error) {
		return stub.InvokeChaincode(tradelens.ChaincodeName, tradelens.FnGetShipment, stub.Args())
	})
	if err := w.STL.Fabric.Deploy("proxy", proxy, fmt.Sprintf("'%s'", tradelens.SellerOrg)); err != nil {
		t.Fatalf("Deploy proxy: %v", err)
	}
	certOf := func(orgID string) []byte {
		org, err := w.SWT.Fabric.Org(orgID)
		if err != nil {
			t.Fatalf("Org: %v", err)
		}
		client, err := org.CA.Issue("swt-diff-client", msp.RoleClient)
		if err != nil {
			t.Fatalf("Issue: %v", err)
		}
		return client.CertPEM()
	}
	return w, w.STL.Fabric.AllPeers()[0], certOf(wetrade.SellerBankOrg), certOf(wetrade.BuyerBankOrg)
}

// relayed marks an invocation as a relayed cross-network query from SWT,
// the way the relay driver does.
func relayed(inv chaincode.Invocation, certPEM []byte) chaincode.Invocation {
	inv.CreatorCert = certPEM
	inv.Relayed = true
	inv.Interop = chaincode.Interop{RequestingNetwork: wetrade.NetworkID, RequestID: "req-1", Nonce: []byte("nonce")}
	return inv
}

func invocation(cc, fn string, args ...string) chaincode.Invocation {
	byteArgs := make([][]byte, len(args))
	for i, a := range args {
		byteArgs[i] = []byte(a)
	}
	return chaincode.Invocation{TxID: "diff-tx", Chaincode: cc, Function: fn, Args: byteArgs, Timestamp: time.Unix(1700000000, 0)}
}

// TestQueryMatchesQueryRW: Query, which records no read set, answers every
// invocation exactly as QueryRW(...).Response does — the same bytes and the
// same error — across relayed reads, the system contracts, missing keys,
// cross-chaincode calls and writes, which both refuse as read-only.
func TestQueryMatchesQueryRW(t *testing.T) {
	_, p, admitted, refused := tradeWorldPeer(t)
	anyError := errors.New("any error")
	cases := []struct {
		name string
		inv  chaincode.Invocation
		want error // nil: success; anyError: some error; else errors.Is
	}{
		{"relay-authorized read", relayed(invocation(tradelens.ChaincodeName, tradelens.FnGetBillOfLading, "po-1"), admitted), nil},
		{"relay read the ECC refuses", relayed(invocation(tradelens.ChaincodeName, tradelens.FnGetBillOfLading, "po-1"), refused), syscc.ErrAccessDenied},
		{"ECC CheckAccess", invocation(syscc.ECCName, syscc.ECCCheckAccess, wetrade.NetworkID, wetrade.SellerBankOrg, tradelens.ChaincodeName, tradelens.FnGetBillOfLading), nil},
		{"CMDAC GetNetworkConfig", invocation(syscc.CMDACName, syscc.CMDACGetNetworkConfig, wetrade.NetworkID), nil},
		{"missing key", relayed(invocation(tradelens.ChaincodeName, tradelens.FnGetBillOfLading, "po-missing"), admitted), anyError},
		{"cross-chaincode call", invocation("proxy", "read", "po-1"), nil},
		{"write attempt", invocation(tradelens.ChaincodeName, tradelens.FnCreateShipment, "po-2", "s", "b", "g"), chaincode.ErrReadOnly},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := p.Query(c.inv)
			sim, rwErr := p.QueryRW(c.inv)
			if (err == nil) != (rwErr == nil) || (err != nil && err.Error() != rwErr.Error()) {
				t.Fatalf("Query err = %v, QueryRW err = %v", err, rwErr)
			}
			switch {
			case c.want == nil && err != nil:
				t.Fatalf("err = %v, want success", err)
			case c.want == anyError && err == nil:
				t.Fatal("succeeded, want an error")
			case c.want != nil && c.want != anyError && !errors.Is(err, c.want):
				t.Fatalf("err = %v, want %v", err, c.want)
			}
			if err != nil {
				return
			}
			if len(got) == 0 || string(got) != string(sim.Response) {
				t.Fatalf("Query = %q, QueryRW = %q", got, sim.Response)
			}
		})
	}
}

// TestQueryRWReadNamespacesOfRelayQuery pins whose state versions the
// attestation cache keys a relayed query's entry by: its read set spans the
// contract, the ECC (the access rules) and the CMDAC (the requester's
// network config).
func TestQueryRWReadNamespacesOfRelayQuery(t *testing.T) {
	_, p, admitted, _ := tradeWorldPeer(t)
	sim, err := p.QueryRW(relayed(invocation(tradelens.ChaincodeName, tradelens.FnGetBillOfLading, "po-1"), admitted))
	if err != nil {
		t.Fatalf("QueryRW: %v", err)
	}
	var namespaces []string
	for _, r := range sim.RWSet.Reads {
		if !slices.Contains(namespaces, r.Namespace) {
			namespaces = append(namespaces, r.Namespace)
		}
	}
	slices.Sort(namespaces)
	want := []string{tradelens.ChaincodeName, syscc.CMDACName, syscc.ECCName}
	slices.Sort(want)
	if !slices.Equal(namespaces, want) {
		t.Fatalf("read namespaces = %v, want %v", namespaces, want)
	}
	if len(sim.RWSet.Writes) != 0 {
		t.Fatalf("a query recorded writes: %+v", sim.RWSet.Writes)
	}
}
