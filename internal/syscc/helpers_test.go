package syscc

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/chaincode"
	"repro/internal/msp"
	"repro/internal/policy"
	"repro/internal/statedb"
	"repro/internal/wire"
)

// helperEnv builds a registry holding the ECC + CMDAC plus a probe
// chaincode that reports the AuthorizeRelayRequest outcome, simulated
// directly against a state store.
func helperEnv(t *testing.T) (*chaincode.Registry, *statedb.Store, *msp.CA) {
	t.Helper()
	reg := chaincode.NewRegistry()
	reg.Register(ECCName, &ECC{})
	reg.Register(CMDACName, &CMDAC{})
	reg.Register("probe", chaincode.Func(func(stub chaincode.Stub) ([]byte, error) {
		org, err := AuthorizeRelayRequest(stub, "probe")
		if err != nil {
			return nil, err
		}
		return []byte(org), nil
	}))
	state := statedb.NewStore()

	// Record the foreign config + rule directly in state, as committed
	// governance transactions would.
	foreignCA, err := msp.NewCA("remote-org")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	cfg := &wire.NetworkConfig{
		NetworkID: "remote-net",
		Platform:  "fabric",
		Orgs:      []wire.OrgConfig{{OrgID: "remote-org", RootCertPEM: foreignCA.RootCertPEM()}},
	}
	cfgKey, _ := statedb.CompositeKey(cmdacConfigKeyType, "remote-net")
	rule := policy.AccessRule{Network: "remote-net", Org: "remote-org", Chaincode: "probe", Function: "read"}
	ruleJSON, _ := rule.Marshal()
	rk, _ := ruleKey(rule)
	state.ApplyWrites([]statedb.Write{
		{Namespace: CMDACName, Key: cfgKey, Value: cfg.Marshal()},
		{Namespace: ECCName, Key: rk, Value: ruleJSON},
	}, statedb.Version{})
	return reg, state, foreignCA
}

// probeInv invokes the probe as a relay would when interop is set, and
// locally when it is nil.
func probeInv(fn string, interop *chaincode.Interop, creator []byte) chaincode.Invocation {
	inv := chaincode.Invocation{
		TxID: "tx", Chaincode: "probe", Function: fn,
		CreatorCert: creator, Timestamp: time.Unix(0, 0),
	}
	if interop != nil {
		inv.Relayed, inv.Interop = true, *interop
	}
	return inv
}

func TestIsRelayQueryAndLocalPassThrough(t *testing.T) {
	reg, state, _ := helperEnv(t)
	// Not relayed: local invocation, authorization is skipped, empty org.
	res, err := chaincode.Simulate(reg, state, probeInv("read", nil, []byte("whatever")))
	if err != nil {
		t.Fatalf("local probe: %v", err)
	}
	if len(res.Response) != 0 {
		t.Fatalf("local probe returned org %q", res.Response)
	}
}

func TestAuthorizeRelayRequestHappyPath(t *testing.T) {
	reg, state, foreignCA := helperEnv(t)
	client, err := foreignCA.Issue("remote-client", msp.RoleClient)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	res, err := chaincode.Simulate(reg, state, probeInv("read", &chaincode.Interop{RequestingNetwork: "remote-net"}, client.CertPEM()))
	if err != nil {
		t.Fatalf("relayed probe: %v", err)
	}
	if !bytes.Equal(res.Response, []byte("remote-org")) {
		t.Fatalf("authorized org = %q", res.Response)
	}
}

func TestAuthorizeRelayRequestMissingNetwork(t *testing.T) {
	reg, state, foreignCA := helperEnv(t)
	client, _ := foreignCA.Issue("remote-client", msp.RoleClient)
	if _, err := chaincode.Simulate(reg, state, probeInv("read", &chaincode.Interop{}, client.CertPEM())); err == nil {
		t.Fatal("relay query without requesting network authorized")
	}
}

func TestAuthorizeRelayRequestWrongFunction(t *testing.T) {
	reg, state, foreignCA := helperEnv(t)
	client, _ := foreignCA.Issue("remote-client", msp.RoleClient)
	// The recorded rule covers "read" only.
	if _, err := chaincode.Simulate(reg, state, probeInv("write", &chaincode.Interop{RequestingNetwork: "remote-net"}, client.CertPEM())); err == nil {
		t.Fatal("unpermitted function authorized")
	}
}

func TestValidateProofArgsLayout(t *testing.T) {
	args := ValidateProofArgs("net", "ledger", "cc", "fn", []byte("bundle"), []byte("a1"), []byte("a2"))
	want := [][]byte{
		[]byte("net"), []byte("ledger"), []byte("cc"), []byte("fn"),
		[]byte("bundle"), []byte("a1"), []byte("a2"),
	}
	if len(args) != len(want) {
		t.Fatalf("args = %d", len(args))
	}
	for i := range want {
		if !bytes.Equal(args[i], want[i]) {
			t.Fatalf("args[%d] = %q", i, args[i])
		}
	}
	bundle, arg := []byte("bundle"), []byte("a1")
	if got := testing.AllocsPerRun(100, func() {
		sinkArgs = ValidateProofArgs("tradelens", "default", "TradeLensCC", "GetBillOfLading", bundle, arg)
	}); got != 1 {
		t.Fatalf("ValidateProofArgs: %v allocations, want 1 (the argument list)", got)
	}
}

var sinkArgs [][]byte

// TestAuthorizeRelayRequestWarmAllocations is the allocation tripwire of
// the source's access decision: a warm relayed probe that calls
// AuthorizeRelayRequest, less the same probe without the call, is what
// the helper and its ECC call cost. The ECC call stays a chaincode call;
// its argument list is pooled. The race detector drops about one pooled
// list in four, less than the one allocation per call that AllocsPerRun's
// whole-number average would need to show it, so the row holds under
// -race too. A change may lower the row, never raise it.
func TestAuthorizeRelayRequestWarmAllocations(t *testing.T) {
	reg, state, ca := helperEnv(t)
	reg.Register("bare", chaincode.Func(func(stub chaincode.Stub) ([]byte, error) { return nil, nil }))
	client, err := ca.Issue("remote-client", msp.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	probe := probeInv("read", &chaincode.Interop{RequestingNetwork: "remote-net"}, client.CertPEM())
	bare := probe
	bare.Chaincode = "bare"
	if org, err := chaincode.Evaluate(reg, state, probe); err != nil || string(org) != "remote-org" {
		t.Fatalf("probe: %q, %v", org, err)
	}
	with := testing.AllocsPerRun(200, func() { _, _ = chaincode.Evaluate(reg, state, probe) })
	without := testing.AllocsPerRun(200, func() { _, _ = chaincode.Evaluate(reg, state, bare) })
	const max = 2
	if got := with - without; got > max {
		t.Fatalf("warm AuthorizeRelayRequest: %v allocations, want <= %v", got, max)
	} else {
		t.Logf("warm AuthorizeRelayRequest: %v allocations (probe %v, bare %v)", got, with, without)
	}
}
