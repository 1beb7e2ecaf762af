package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/proof"
	"repro/internal/relay"
	"repro/internal/wire"
)

// TestBatchedAttestationQueryWindow drives the Merkle-batching window end
// to end through the full client stack: four concurrent cold queries land
// in one window, every attestor signs once, and each client's independent
// proof.Verify accepts its leaf + inclusion proof.
func TestBatchedAttestationQueryWindow(t *testing.T) {
	const width = 4
	w := buildWorld(t)
	for i := 0; i < width; i++ {
		if _, err := w.srcAdmin.Submit("sourceCC", "Put", []byte(fmt.Sprintf("bl-%d", i)), []byte("doc")); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	// maxPending = width makes the flush deterministic: the window closes
	// the instant the last of the four concurrent queries arrives.
	w.source.Driver.ConfigureAttestationBatching(time.Second, width)

	client, err := NewClient(w.dest, "seller-bank-org", "batch-reader")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	results := make([]*RemoteData, width)
	errs := make([]error, width)
	var wg sync.WaitGroup
	for i := 0; i < width; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = client.RemoteQuery(context.Background(), RemoteQuerySpec{
				Network: "source-net", Contract: "sourceCC", Function: "Get",
				Args: [][]byte{[]byte(fmt.Sprintf("bl-%d", i))},
			})
		}(i)
	}
	wg.Wait()
	for i := 0; i < width; i++ {
		if errs[i] != nil {
			t.Fatalf("RemoteQuery %d: %v", i, errs[i])
		}
		for _, el := range results[i].Bundle.Elements {
			if el.BatchSize != width {
				t.Fatalf("query %d element batch size = %d, want %d", i, el.BatchSize, width)
			}
		}
	}
	// One signature per attestor for the whole window: every query carries
	// the same signature from the same attestor slot.
	for slot := range results[0].Bundle.Elements {
		first := results[0].Bundle.Elements[slot].Signature
		for i := 1; i < width; i++ {
			if !bytes.Equal(first, results[i].Bundle.Elements[slot].Signature) {
				t.Fatalf("attestor slot %d signed query %d separately", slot, i)
			}
		}
	}
}

// TestBatchedInvokeReplayAfterOrgRemoval is the proof-carrying scenario
// for batched proofs: two concurrent invokes share one attestation window,
// the batched Sealed artifact is persisted with each committed
// transaction, an attestor org then leaves the source network, and a
// replay through a cold relay serves the persisted batched proof byte for
// byte — the inclusion proofs still verify because nothing is re-signed.
func TestBatchedInvokeReplayAfterOrgRemoval(t *testing.T) {
	w, client := buildInvokeWorld(t)
	w.source.Driver.ConfigureAttestationBatching(time.Second, 2)

	specs := [2]RemoteQuerySpec{}
	for i := range specs {
		specs[i] = RemoteQuerySpec{
			Network: "source-net", Contract: "writable", Function: "Append",
			Args:      [][]byte{[]byte(fmt.Sprintf("audit-%d", i)), []byte("entry;")},
			RequestID: fmt.Sprintf("batched-invoke-%d", i),
		}
	}
	originals := [2]*RemoteData{}
	errs := [2]error{}
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			originals[i], errs[i] = client.RemoteInvoke(context.Background(), specs[i])
		}(i)
	}
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("RemoteInvoke %d: %v", i, errs[i])
		}
		for _, el := range originals[i].Bundle.Elements {
			if el.BatchSize != 2 {
				t.Fatalf("invoke %d element batch size = %d, want 2", i, el.BatchSize)
			}
		}
	}

	// The persisted artifact is itself batched: the Sealed response on the
	// ledger carries the window's inclusion proofs.
	peers := w.source.Fabric.AllPeers()
	for i := range specs {
		tx, err := peers[0].Blocks().TxByInteropKey(originals[i].Query.InteropKey())
		if err != nil {
			t.Fatalf("TxByInteropKey %d: %v", i, err)
		}
		sealed, err := proof.UnmarshalSealed(tx.ProofBundle)
		if err != nil {
			t.Fatalf("UnmarshalSealed %d: %v", i, err)
		}
		resp, err := wire.UnmarshalQueryResponse(sealed.Response)
		if err != nil {
			t.Fatalf("UnmarshalQueryResponse %d: %v", i, err)
		}
		for _, att := range resp.Attestations {
			if att.BatchSize != 2 || len(att.BatchPath) == 0 {
				t.Fatalf("persisted attestation %d not batched: size=%d path=%d", i, att.BatchSize, len(att.BatchPath))
			}
			// Every envelope is sessioned, so the persisted window is
			// batched AND sessioned — the replay below therefore proves the
			// sessioned batched Sealed artifact is served byte for byte.
			if len(att.SessionEphemeral) == 0 || att.SessionGeneration == 0 {
				t.Fatalf("persisted attestation %d is not sessioned", i)
			}
		}
	}

	// Cold second relay + org removal: replay can only come from the
	// ledger, and fresh batched attestation is impossible.
	relay2 := relay.New("source-net", w.registry, w.hub)
	relay2.RegisterDriver("source-net", relay.NewFabricDriver(w.source.Fabric, "default"))
	w.hub.Attach("source-relay-2", relay2)
	if err := w.registry.Deregister("source-net", "source-relay"); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	w.registry.Register("source-net", "source-relay-2")
	if err := w.source.Fabric.RemoveOrg("carrier-org"); err != nil {
		t.Fatalf("RemoveOrg: %v", err)
	}

	for i := range specs {
		replayed, err := client.RemoteInvoke(context.Background(), specs[i])
		if err != nil {
			t.Fatalf("RemoteInvoke replay %d: %v", i, err)
		}
		if !bytes.Equal(replayed.BundleBytes, originals[i].BundleBytes) {
			t.Fatalf("replayed batched bundle %d differs from the persisted original", i)
		}
	}
	if got := relay2.Stats().InvokeReplays; got != 2 {
		t.Fatalf("InvokeReplays = %d, want 2", got)
	}
}
