package scenario

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/wire"
)

// stagesBy groups spans by relay, counting each stage.
func stagesBy(spans []wire.Span) map[string]map[string]int {
	by := map[string]map[string]int{}
	for _, s := range spans {
		if by[s.Relay] == nil {
			by[s.Relay] = map[string]int{}
		}
		by[s.Relay][s.Stage]++
	}
	return by
}

// wantStages fails unless relay recorded every one of stages.
func wantStages(t *testing.T, kind string, by map[string]map[string]int, relay string, stages ...string) {
	t.Helper()
	for _, stage := range stages {
		if by[relay][stage] == 0 {
			t.Errorf("%s: %s recorded %v, missing %s", kind, relay, by[relay], stage)
		}
	}
}

// TestTracedChainSpans: over SWT → hub-1 → hub-2 → STL on TCP, a traced
// query and a traced invoke come back with spans from the client and
// origin, both hubs and the source, each relay's own stages among them.
func TestTracedChainSpans(t *testing.T) {
	d, err := BuildTCPChain(2, 1)
	if err != nil {
		t.Fatalf("BuildTCPChain: %v", err)
	}
	defer d.Close()
	w := d.World
	if err := DeployAuditLog(w); err != nil {
		t.Fatalf("DeployAuditLog: %v", err)
	}
	seedBillOfLading(t, w, "po-trace-1")
	client, err := core.NewClient(w.SWT, wetrade.SellerBankOrg, "trace-client")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	ctx := context.Background()
	hubs := []string{HubNetworkID(0), HubNetworkID(1)}

	data, err := client.RemoteQuery(ctx, core.RemoteQuerySpec{
		Network: tradelens.NetworkID, Contract: tradelens.ChaincodeName,
		Function: tradelens.FnGetBillOfLading, Args: [][]byte{[]byte("po-trace-1")}, Trace: true,
	})
	if err != nil {
		t.Fatalf("traced query: %v", err)
	}
	by := stagesBy(data.Spans)
	wantStages(t, "query", by, wetrade.NetworkID, trace.GatewayEval, trace.Codec, trace.Queue, trace.PinVerify, trace.Open, trace.Verify)
	for _, hub := range hubs {
		wantStages(t, "query", by, hub, trace.Codec, trace.Queue, trace.PinVerify, trace.PinSign, trace.Serve)
	}
	wantStages(t, "query", by, tradelens.NetworkID, trace.Codec, trace.PeerRead, trace.Chaincode+"ecc", trace.Cache, trace.Build, trace.Serve)
	if by[wetrade.NetworkID][trace.GatewayEval] != 2 {
		t.Errorf("client gateway evaluations = %d, want 2 (policy and config lookups)", by[wetrade.NetworkID][trace.GatewayEval])
	}

	inv, err := client.RemoteInvoke(ctx, core.RemoteQuerySpec{
		Network: tradelens.NetworkID, Contract: AuditChaincodeName, Function: "Append",
		Args: [][]byte{[]byte("trace-key"), []byte("v;")}, RequestID: "trace-inv-1", Trace: true,
	})
	if err != nil {
		t.Fatalf("traced invoke: %v", err)
	}
	by = stagesBy(inv.Spans)
	wantStages(t, "invoke", by, wetrade.NetworkID, trace.Codec, trace.Queue, trace.Open, trace.Verify)
	for _, hub := range hubs {
		wantStages(t, "invoke", by, hub, trace.Queue, trace.PinSign, trace.Serve)
	}
	wantStages(t, "invoke", by, tradelens.NetworkID, trace.ReplayCheck, trace.Endorse, trace.Build, trace.OrderWait, trace.Commit, trace.Serve)

	untraced, err := client.RemoteQuery(ctx, core.RemoteQuerySpec{
		Network: tradelens.NetworkID, Contract: tradelens.ChaincodeName,
		Function: tradelens.FnGetBillOfLading, Args: [][]byte{[]byte("po-trace-1")},
	})
	if err != nil || untraced.Spans != nil {
		t.Fatalf("untraced query: %d spans, %v; want none", len(untraced.Spans), err)
	}
}

// TestTraceLeavesProofAndPinsUnchanged: the same raw query sent untraced
// and traced, both answered from the source's cache, gets the same
// response. Direct, the whole QueryResponse.Digest is equal; over two hubs
// the hop pin digests are equal and, pins aside, so is the digest — a hop
// pin's ECDSA signature is randomized, so pin signatures are the only
// bytes that differ.
func TestTraceLeavesProofAndPinsUnchanged(t *testing.T) {
	for _, hubs := range []int{0, 2} {
		t.Run(fmt.Sprintf("hubs-%d", hubs), func(t *testing.T) {
			d, err := BuildTCPChain(hubs, 1)
			if err != nil {
				t.Fatalf("BuildTCPChain: %v", err)
			}
			defer d.Close()
			w := d.World
			seedBillOfLading(t, w, "po-trace-2")
			ri := newRawInvoker(t, w)
			q, err := chainQuery(ri, "po-trace-2")
			if err != nil {
				t.Fatal(err)
			}
			q.RequestID = "trace-same-1"
			ctx := context.Background()
			if _, err := w.SWT.Relay.Query(ctx, q); err != nil { // the cold build
				t.Fatalf("cold query: %v", err)
			}
			plain, err := w.SWT.Relay.Query(ctx, q)
			if err != nil {
				t.Fatalf("untraced query: %v", err)
			}
			rec := trace.New("trace-same", wetrade.NetworkID)
			traced, err := w.SWT.Relay.Query(trace.NewContext(ctx, rec), q)
			if err != nil {
				t.Fatalf("traced query: %v", err)
			}
			if got := len(stagesBy(rec.Spans())); got != hubs+2 {
				t.Fatalf("spans from %v, want origin, %d hubs and source", stagesBy(rec.Spans()), hubs)
			}
			if hubs == 0 {
				if plain.Digest() != traced.Digest() {
					t.Fatal("the response digest differs with a trace ID")
				}
				return
			}
			if len(plain.HopPins) != hubs || len(traced.HopPins) != hubs {
				t.Fatalf("pins: %d untraced, %d traced; want %d", len(plain.HopPins), len(traced.HopPins), hubs)
			}
			for i := range plain.HopPins {
				a, b := plain.HopPins[i], traced.HopPins[i]
				if a.Network != b.Network || !bytes.Equal(a.Pin, b.Pin) || !bytes.Equal(a.CertPEM, b.CertPEM) {
					t.Fatalf("hop pin %d differs with a trace ID", i)
				}
			}
			plain.HopPins, traced.HopPins = nil, nil
			if plain.Digest() != traced.Digest() || !bytes.Equal(plain.Marshal(), traced.Marshal()) {
				t.Fatal("the response (proof, sealed result, policy pin) differs with a trace ID")
			}
		})
	}
}
