package chaincode

import (
	"bytes"
	"testing"

	"repro/internal/statedb"
)

func TestGetTransient(t *testing.T) {
	reg := NewRegistry()
	state := statedb.NewStore()
	var seen, missing []byte
	reg.Register("cc", Func(func(stub Stub) ([]byte, error) {
		seen = stub.GetTransient("app-tag")
		missing = stub.GetTransient("absent")
		return nil, nil
	}))
	proposal := inv("cc", "fn")
	proposal.Transient = map[string][]byte{"app-tag": []byte("1")}
	if _, err := Simulate(reg, state, proposal); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if !bytes.Equal(seen, []byte("1")) {
		t.Fatalf("transient = %q", seen)
	}
	if missing != nil {
		t.Fatalf("absent transient = %q", missing)
	}
}

// TestGetTransientRelayed: under Relayed the interop keys are answered from
// Interop, and an invocation without a TxID is named after its request ID.
// Without Relayed they are absent, even when the Transient map holds them:
// only a relay marks a request as relayed.
func TestGetTransientRelayed(t *testing.T) {
	reg := NewRegistry()
	state := statedb.NewStore()
	got := map[string][]byte{}
	var txID string
	reg.Register("cc", Func(func(stub Stub) ([]byte, error) {
		for _, k := range []string{TransientInteropFlag, TransientRequestingNetwork, TransientNonce, "app-tag"} {
			got[k] = stub.GetTransient(k)
		}
		txID = stub.TxID()
		return nil, nil
	}))
	relayed := inv("cc", "fn")
	relayed.TxID = ""
	relayed.Relayed = true
	relayed.Interop = Interop{RequestingNetwork: "remote-net", RequestID: "req-7", Nonce: []byte("nonce")}
	relayed.Transient = map[string][]byte{"app-tag": []byte("tag"), TransientRequestingNetwork: []byte("forged")}
	if _, err := Evaluate(reg, state, relayed); err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	want := map[string]string{TransientInteropFlag: "1", TransientRequestingNetwork: "remote-net", TransientNonce: "nonce", "app-tag": "tag"}
	for k, v := range want {
		if string(got[k]) != v {
			t.Errorf("relayed %s = %q, want %q", k, got[k], v)
		}
	}
	if txID != "interop-req-7" {
		t.Errorf("relayed TxID = %q, want interop-req-7", txID)
	}

	named := relayed
	named.TxID = "tx-named"
	if _, err := Evaluate(reg, state, named); err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if txID != "tx-named" {
		t.Errorf("named relayed TxID = %q", txID)
	}

	local := relayed
	local.Relayed = false
	local.Transient = map[string][]byte{TransientInteropFlag: []byte("1"), TransientRequestingNetwork: []byte("forged")}
	if _, err := Evaluate(reg, state, local); err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	for _, k := range []string{TransientInteropFlag, TransientRequestingNetwork, TransientNonce} {
		if got[k] != nil {
			t.Errorf("local %s = %q, want absent", k, got[k])
		}
	}
	if txID != "" {
		t.Errorf("local TxID = %q, want empty", txID)
	}
}

func TestTransientNotInRWSet(t *testing.T) {
	// Transient data must never leak into the read-write set (it is
	// proposal-scoped and off-ledger by definition).
	reg := NewRegistry()
	state := statedb.NewStore()
	reg.Register("cc", Func(func(stub Stub) ([]byte, error) {
		return stub.GetTransient("secret"), nil
	}))
	proposal := inv("cc", "fn")
	proposal.Transient = map[string][]byte{"secret": []byte("classified")}
	res, err := Simulate(reg, state, proposal)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if len(res.RWSet.Reads) != 0 || len(res.RWSet.Writes) != 0 {
		t.Fatalf("transient leaked into rwset: %+v", res.RWSet)
	}
	if !bytes.Equal(res.Response, []byte("classified")) {
		t.Fatalf("response = %q", res.Response)
	}
}

func TestTransientSharedAcrossChaincodeInvoke(t *testing.T) {
	// Cross-chaincode invocations see the same proposal transient.
	reg := NewRegistry()
	state := statedb.NewStore()
	reg.Register("callee", Func(func(stub Stub) ([]byte, error) {
		return stub.GetTransient("app-tag"), nil
	}))
	reg.Register("caller", Func(func(stub Stub) ([]byte, error) {
		return stub.InvokeChaincode("callee", "fn", nil)
	}))
	proposal := inv("caller", "go")
	proposal.Transient = map[string][]byte{"app-tag": []byte("relay")}
	res, err := Simulate(reg, state, proposal)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if !bytes.Equal(res.Response, []byte("relay")) {
		t.Fatalf("callee transient = %q", res.Response)
	}
}
