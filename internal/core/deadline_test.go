package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestSubmitRefusedOnExpiredContext(t *testing.T) {
	w := buildWorld(t)
	client, _ := NewClient(w.dest, "seller-bank-org", "c")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.Submit(ctx, "destCC", "Read", []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit err = %v, want Canceled", err)
	}
	if _, err := client.Evaluate(ctx, "destCC", "Read", []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("Evaluate err = %v, want Canceled", err)
	}
	if _, err := client.RemoteQuery(ctx, RemoteQuerySpec{
		Network: "source-net", Contract: "sourceCC", Function: "Get",
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RemoteQuery err = %v, want Canceled", err)
	}
}

// TestRemoteQueryDeadlineEndToEnd: the whole client-level operation returns
// within its deadline when the source relay is hung.
func TestRemoteQueryDeadlineEndToEnd(t *testing.T) {
	w := buildWorld(t)
	client, _ := NewClient(w.dest, "seller-bank-org", "c")
	if _, err := w.srcAdmin.Submit("sourceCC", "Put", []byte("doc-0"), []byte("v-doc-0")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	w.hub.SetStall("source-relay", true)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.RemoteQuery(ctx, RemoteQuerySpec{
		Network: "source-net", Contract: "sourceCC", Function: "Get",
		Args: [][]byte{[]byte("doc-0")},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("RemoteQuery blocked %v past its deadline", elapsed)
	}
}
