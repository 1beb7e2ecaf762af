package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/chaincode"
	"repro/internal/fabric"
	"repro/internal/ledger"
	"repro/internal/msp"
	"repro/internal/orderer"
	"repro/internal/policy"
	"repro/internal/proof"
	"repro/internal/relay"
	"repro/internal/syscc"
	"repro/internal/wire"
)

// sourceCC exposes documents cross-network with the two-call adaptation.
var sourceCC = chaincode.Func(func(stub chaincode.Stub) ([]byte, error) {
	switch stub.Function() {
	case "Put":
		return nil, stub.PutState("doc/"+string(stub.Args()[0]), stub.Args()[1])
	case "Get":
		if _, err := syscc.AuthorizeRelayRequest(stub, "sourceCC"); err != nil {
			return nil, err
		}
		return stub.GetState("doc/" + string(stub.Args()[0]))
	default:
		return nil, fmt.Errorf("unknown function %q", stub.Function())
	}
})

// destCC accepts remote data after CMDAC validation: Accept(bundle, key).
var destCC = chaincode.Func(func(stub chaincode.Stub) ([]byte, error) {
	switch stub.Function() {
	case "Accept":
		args := stub.Args()
		if len(args) != 2 {
			return nil, errors.New("Accept needs bundle and doc key")
		}
		verified, err := stub.InvokeChaincode(syscc.CMDACName, syscc.CMDACValidateProof,
			syscc.ValidateProofArgs("source-net", "default", "sourceCC", "Get", args[0], args[1]))
		if err != nil {
			return nil, err
		}
		if err := stub.PutState("imported/"+string(args[1]), verified); err != nil {
			return nil, err
		}
		return verified, nil
	case "Read":
		return stub.GetState("imported/" + string(stub.Args()[0]))
	default:
		return nil, fmt.Errorf("unknown function %q", stub.Function())
	}
})

// world is a fully wired pair of interop-enabled networks.
type world struct {
	hub       *relay.Hub
	registry  *relay.StaticRegistry
	source    *Network
	dest      *Network
	srcAdmin  *fabric.Gateway
	destAdmin *fabric.Gateway
}

func buildWorld(t testing.TB) *world {
	t.Helper()
	hub := relay.NewHub()
	registry := relay.NewStaticRegistry()

	srcFab := fabric.NewNetwork("source-net", orderer.Config{})
	for _, org := range []string{"seller-org", "carrier-org"} {
		if _, err := srcFab.AddOrg(org, 1); err != nil {
			t.Fatalf("AddOrg: %v", err)
		}
	}
	if err := srcFab.Deploy("sourceCC", sourceCC, "AND('seller-org','carrier-org')"); err != nil {
		t.Fatalf("Deploy sourceCC: %v", err)
	}
	source, err := EnableInterop(srcFab, registry, hub, Options{})
	if err != nil {
		t.Fatalf("EnableInterop source: %v", err)
	}

	destFab := fabric.NewNetwork("dest-net", orderer.Config{})
	for _, org := range []string{"buyer-bank-org", "seller-bank-org"} {
		if _, err := destFab.AddOrg(org, 1); err != nil {
			t.Fatalf("AddOrg: %v", err)
		}
	}
	if err := destFab.Deploy("destCC", destCC, "AND('buyer-bank-org','seller-bank-org')"); err != nil {
		t.Fatalf("Deploy destCC: %v", err)
	}
	dest, err := EnableInterop(destFab, registry, hub, Options{})
	if err != nil {
		t.Fatalf("EnableInterop dest: %v", err)
	}

	hub.Attach("source-relay", source.Relay)
	hub.Attach("dest-relay", dest.Relay)
	registry.Register("source-net", "source-relay")
	registry.Register("dest-net", "dest-relay")

	srcOrg, _ := srcFab.Org("seller-org")
	srcAdminID, _ := srcOrg.CA.Issue("src-admin", msp.RoleAdmin)
	destOrg, _ := destFab.Org("buyer-bank-org")
	destAdminID, _ := destOrg.CA.Issue("dest-admin", msp.RoleAdmin)

	w := &world{
		hub: hub, registry: registry,
		source: source, dest: dest,
		srcAdmin:  srcFab.Gateway(srcAdminID),
		destAdmin: destFab.Gateway(destAdminID),
	}

	// Interop initialization (§3.3): exchange configurations, record the
	// verification policy on the destination and the access rule on the
	// source.
	if err := w.source.ConfigureForeignNetwork(w.srcAdmin, w.dest.ExportConfig()); err != nil {
		t.Fatalf("configure dest on source: %v", err)
	}
	if err := w.dest.ConfigureForeignNetwork(w.destAdmin, w.source.ExportConfig()); err != nil {
		t.Fatalf("configure source on dest: %v", err)
	}
	if err := w.dest.SetVerificationPolicy(w.destAdmin, policy.VerificationPolicy{
		Network: "source-net",
		Expr:    "AND('seller-org.peer','carrier-org.peer')",
	}); err != nil {
		t.Fatalf("set verification policy: %v", err)
	}
	if err := w.source.GrantAccess(w.srcAdmin, policy.AccessRule{
		Network: "dest-net", Org: "seller-bank-org", Chaincode: "sourceCC", Function: "Get",
	}); err != nil {
		t.Fatalf("grant access: %v", err)
	}
	return w
}

func TestEndToEndTrustedDataTransfer(t *testing.T) {
	w := buildWorld(t)
	if _, err := w.srcAdmin.Submit("sourceCC", "Put", []byte("bl-77"), []byte("the document")); err != nil {
		t.Fatalf("Put: %v", err)
	}

	client, err := NewClient(w.dest, "seller-bank-org", "swt-seller-client")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	data, err := client.RemoteQuery(context.Background(), RemoteQuerySpec{
		Network:  "source-net",
		Contract: "sourceCC",
		Function: "Get",
		Args:     [][]byte{[]byte("bl-77")},
	})
	if err != nil {
		t.Fatalf("RemoteQuery: %v", err)
	}
	if !bytes.Equal(data.Result, []byte("the document")) {
		t.Fatalf("result = %q", data.Result)
	}

	// Step 10: local transaction embedding the remote data, validated by
	// the CMDAC on every destination peer.
	verified, err := client.SubmitWithRemoteData(context.Background(), "destCC", "Accept", data, []byte("bl-77"))
	if err != nil {
		t.Fatalf("SubmitWithRemoteData: %v", err)
	}
	if !bytes.Equal(verified, []byte("the document")) {
		t.Fatalf("verified = %q", verified)
	}
	got, err := client.Evaluate(context.Background(), "destCC", "Read", []byte("bl-77"))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, []byte("the document")) {
		t.Fatalf("imported = %q", got)
	}
}

func TestRemoteQueryUsesRecordedPolicy(t *testing.T) {
	w := buildWorld(t)
	_, _ = w.srcAdmin.Submit("sourceCC", "Put", []byte("k"), []byte("v"))
	client, _ := NewClient(w.dest, "seller-bank-org", "c")
	data, err := client.RemoteQuery(context.Background(), RemoteQuerySpec{
		Network: "source-net", Contract: "sourceCC", Function: "Get",
		Args: [][]byte{[]byte("k")},
	})
	if err != nil {
		t.Fatalf("RemoteQuery: %v", err)
	}
	// The recorded policy demands both orgs; the proof must carry both.
	if len(data.Bundle.Elements) != 2 {
		t.Fatalf("elements = %d", len(data.Bundle.Elements))
	}
	if data.Query.PolicyExpr != "AND('seller-org.peer','carrier-org.peer')" {
		t.Fatalf("policy = %q", data.Query.PolicyExpr)
	}
}

func TestRemoteQueryNoPolicyConfigured(t *testing.T) {
	w := buildWorld(t)
	client, _ := NewClient(w.dest, "seller-bank-org", "c")
	_, err := client.RemoteQuery(context.Background(), RemoteQuerySpec{
		Network: "unknown-net", Contract: "cc", Function: "fn",
	})
	if !errors.Is(err, ErrNotConfigured) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoteQueryDeniedOrg(t *testing.T) {
	w := buildWorld(t)
	_, _ = w.srcAdmin.Submit("sourceCC", "Put", []byte("k"), []byte("v"))
	// buyer-bank-org has no access rule on the source network.
	client, _ := NewClient(w.dest, "buyer-bank-org", "nosy-client")
	_, err := client.RemoteQuery(context.Background(), RemoteQuerySpec{
		Network: "source-net", Contract: "sourceCC", Function: "Get",
		Args: [][]byte{[]byte("k")},
	})
	if err == nil {
		t.Fatal("query from unauthorized org succeeded")
	}
}

func TestRevokeAccessCutsQueries(t *testing.T) {
	w := buildWorld(t)
	_, _ = w.srcAdmin.Submit("sourceCC", "Put", []byte("k"), []byte("v"))
	client, _ := NewClient(w.dest, "seller-bank-org", "c")
	spec := RemoteQuerySpec{
		Network: "source-net", Contract: "sourceCC", Function: "Get",
		Args: [][]byte{[]byte("k")},
	}
	if _, err := client.RemoteQuery(context.Background(), spec); err != nil {
		t.Fatalf("query before revoke: %v", err)
	}
	rule := policy.AccessRule{Network: "dest-net", Org: "seller-bank-org", Chaincode: "sourceCC", Function: "Get"}
	if err := w.source.RevokeAccess(w.srcAdmin, rule); err != nil {
		t.Fatalf("RevokeAccess: %v", err)
	}
	if _, err := client.RemoteQuery(context.Background(), spec); err == nil {
		t.Fatal("query after revoke succeeded")
	}
}

func TestReplayedBundleRejectedOnChain(t *testing.T) {
	w := buildWorld(t)
	_, _ = w.srcAdmin.Submit("sourceCC", "Put", []byte("bl-77"), []byte("doc"))
	client, _ := NewClient(w.dest, "seller-bank-org", "c")
	data, err := client.RemoteQuery(context.Background(), RemoteQuerySpec{
		Network: "source-net", Contract: "sourceCC", Function: "Get",
		Args: [][]byte{[]byte("bl-77")},
	})
	if err != nil {
		t.Fatalf("RemoteQuery: %v", err)
	}
	if _, err := client.SubmitWithRemoteData(context.Background(), "destCC", "Accept", data, []byte("bl-77")); err != nil {
		t.Fatalf("first Accept: %v", err)
	}
	// Submitting the same bundle again must fail on nonce replay.
	if _, err := client.SubmitWithRemoteData(context.Background(), "destCC", "Accept", data, []byte("bl-77")); err == nil {
		t.Fatal("replayed bundle accepted")
	}
}

func TestTamperedBundleRejectedOnChain(t *testing.T) {
	w := buildWorld(t)
	_, _ = w.srcAdmin.Submit("sourceCC", "Put", []byte("bl-77"), []byte("real")) //nolint
	client, _ := NewClient(w.dest, "seller-bank-org", "c")
	data, err := client.RemoteQuery(context.Background(), RemoteQuerySpec{
		Network: "source-net", Contract: "sourceCC", Function: "Get",
		Args: [][]byte{[]byte("bl-77")},
	})
	if err != nil {
		t.Fatalf("RemoteQuery: %v", err)
	}
	// Tamper with the result inside the marshaled bundle by rebuilding it.
	data.Bundle.Result = []byte("fake")
	data.BundleBytes = data.Bundle.Marshal()
	if _, err := client.SubmitWithRemoteData(context.Background(), "destCC", "Accept", data, []byte("bl-77")); err == nil {
		t.Fatal("tampered bundle accepted")
	}
}

func TestEnableInteropDefaultsSinglrOrg(t *testing.T) {
	fab := fabric.NewNetwork("solo", orderer.Config{BatchSize: 1})
	if _, err := fab.AddOrg("only-org", 1); err != nil {
		t.Fatalf("AddOrg: %v", err)
	}
	n, err := EnableInterop(fab, relay.NewStaticRegistry(), relay.NewHub(), Options{})
	if err != nil {
		t.Fatalf("EnableInterop: %v", err)
	}
	if n.LedgerName() != "default" || n.ID() != "solo" {
		t.Fatalf("network = %+v", n)
	}
}

func TestEnableInteropNoOrgs(t *testing.T) {
	fab := fabric.NewNetwork("empty", orderer.Config{BatchSize: 1})
	if _, err := EnableInterop(fab, relay.NewStaticRegistry(), relay.NewHub(), Options{}); err == nil {
		t.Fatal("empty network accepted")
	}
}

func TestClientUnknownOrg(t *testing.T) {
	w := buildWorld(t)
	if _, err := NewClient(w.dest, "ghost-org", "c"); err == nil {
		t.Fatal("client created under unknown org")
	}
}

func TestDestinationLedgerRecordsValidTx(t *testing.T) {
	w := buildWorld(t)
	_, _ = w.srcAdmin.Submit("sourceCC", "Put", []byte("bl-77"), []byte("doc"))
	client, _ := NewClient(w.dest, "seller-bank-org", "c")
	data, _ := client.RemoteQuery(context.Background(), RemoteQuerySpec{
		Network: "source-net", Contract: "sourceCC", Function: "Get",
		Args: [][]byte{[]byte("bl-77")},
	})
	if _, err := client.SubmitWithRemoteData(context.Background(), "destCC", "Accept", data, []byte("bl-77")); err != nil {
		t.Fatalf("Accept: %v", err)
	}
	// Every destination peer holds the committed transaction with the
	// bundle in its arguments and a valid chain.
	for _, p := range w.dest.Fabric.AllPeers() {
		if err := p.Blocks().VerifyChain(); err != nil {
			t.Fatalf("peer %s chain: %v", p.Name(), err)
		}
		height := p.Blocks().Height()
		if height == 0 {
			t.Fatalf("peer %s has empty chain", p.Name())
		}
		blk, err := p.Blocks().Block(height - 1)
		if err != nil {
			t.Fatalf("Block: %v", err)
		}
		tx := blk.Transactions[0]
		if tx.Validation != ledger.Valid {
			t.Fatalf("tx validation = %v", tx.Validation)
		}
	}
}

func BenchmarkRemoteQueryEndToEnd(b *testing.B) {
	w := buildWorld(b)
	_, _ = w.srcAdmin.Submit("sourceCC", "Put", []byte("k"), []byte("v"))
	client, err := NewClient(w.dest, "seller-bank-org", "c")
	if err != nil {
		b.Fatal(err)
	}
	spec := RemoteQuerySpec{
		Network: "source-net", Contract: "sourceCC", Function: "Get",
		Args: [][]byte{[]byte("k")},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.RemoteQuery(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

// preVerify skips the client-side check only when the local CMDAC holds no
// configuration for the source; any other failure to read it is reported,
// never mistaken for "nothing to check against".
func TestPreVerifySkipsOnlyWhenNoConfigRecorded(t *testing.T) {
	w := buildWorld(t)
	client, err := NewClient(w.dest, "seller-bank-org", "c")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	// A pinned bundle with no elements satisfies no policy, so nil means the
	// check was skipped.
	policyExpr := "AND('seller-org.peer','carrier-org.peer')"
	pin := proof.PolicyDigest(policyExpr)
	unverifiable := &proof.Bundle{SourceNetwork: "source-net", PolicyDigest: pin}
	// Queries pinned to policyExpr, as buildQuery pins them.
	unrecorded := &wire.Query{TargetNetwork: "unrecorded-net", PolicyDigest: pin}
	recorded := &wire.Query{TargetNetwork: "source-net", PolicyDigest: pin}

	if err := client.preVerify(nil, unrecorded, unverifiable, policyExpr); err != nil {
		t.Fatalf("no recorded configuration: err = %v, want the check skipped", err)
	}
	if err := client.preVerify(nil, recorded, unverifiable, policyExpr); !errors.Is(err, proof.ErrPolicyUnsatisfied) {
		t.Fatalf("recorded configuration: err = %v, want the bundle refused", err)
	}

	// A gateway onto a network with no CMDAC at all: the read fails for a
	// reason other than an absent record.
	bare := fabric.NewNetwork("bare-net", orderer.Config{BatchSize: 1})
	if _, err := bare.AddOrg("seller-bank-org", 1); err != nil {
		t.Fatalf("AddOrg: %v", err)
	}
	client.gateway = bare.Gateway(client.identity)
	if err := client.preVerify(nil, recorded, unverifiable, policyExpr); !errors.Is(err, chaincode.ErrNotFound) {
		t.Fatalf("failing gateway: err = %v, want the read error propagated", err)
	}
}
