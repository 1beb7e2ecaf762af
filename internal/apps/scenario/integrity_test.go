package scenario

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/peer"
	"repro/internal/statedb"
)

// worldState is a deep copy of one peer's world state and the height of
// the chain it reflects.
type worldState struct {
	height uint64
	kv     map[string]map[string]statedb.VersionedValue // namespace → key
}

// snapshotState deep-copies p's committed state.
func snapshotState(p *peer.Peer) worldState {
	s := worldState{height: p.Blocks().Height(), kv: map[string]map[string]statedb.VersionedValue{}}
	for _, ns := range p.State().Namespaces() {
		keys := map[string]statedb.VersionedValue{}
		for _, kv := range p.State().Range(ns, "", "") {
			keys[kv.Key] = statedb.VersionedValue{Value: bytes.Clone(kv.Value), Version: kv.Version}
		}
		s.kv[ns] = keys
	}
	return s
}

// replay applies the valid write sets of p's blocks above s.height to s, as
// the committer applies them, and moves s.height up to p's.
func (s *worldState) replay(t *testing.T, p *peer.Peer) {
	t.Helper()
	for ; s.height < p.Blocks().Height(); s.height++ {
		num := s.height
		b, err := p.Blocks().Block(num)
		if err != nil {
			t.Fatalf("block %d: %v", num, err)
		}
		for txNum, tx := range b.Transactions {
			if tx.Validation != ledger.Valid {
				continue
			}
			for _, w := range tx.RWSet.Writes {
				if s.kv[w.Namespace] == nil {
					s.kv[w.Namespace] = map[string]statedb.VersionedValue{}
				}
				if w.IsDelete {
					delete(s.kv[w.Namespace], w.Key)
					continue
				}
				s.kv[w.Namespace][w.Key] = statedb.VersionedValue{
					Value:   bytes.Clone(w.Value),
					Version: statedb.Version{BlockNum: num, TxNum: uint64(txNum)},
				}
			}
		}
	}
}

// diff returns the first namespace/key at which s and p's committed state
// differ, or "" when they are equal.
func (s *worldState) diff(p *peer.Peer) string {
	got := snapshotState(p)
	for ns, keys := range s.kv {
		for k, want := range keys {
			have, ok := got.kv[ns][k]
			if !ok || !bytes.Equal(have.Value, want.Value) || have.Version != want.Version {
				return ns + "/" + k
			}
		}
	}
	for ns, keys := range got.kv {
		for k := range keys {
			if _, ok := s.kv[ns][k]; !ok {
				return ns + "/" + k
			}
		}
	}
	return ""
}

// TestStateIntegrityUnderInteropTraffic is the tripwire of the in-place read
// path: committed values are handed to chaincode, relays and clients
// without a copy, so a layer that wrote into a value it read would corrupt
// the world state itself. Every STL and SWT peer's state is deep-copied
// before cross-network traffic over a one-hub TCP chain — a cold and a
// cached query, forwarded auditcc.Append invokes that read and extend the
// same log, and a transfer whose bundle CMDAC.ValidateProof checks on SWT
// — and after each step each state must equal its copy plus the valid
// write sets of the blocks committed since.
func TestStateIntegrityUnderInteropTraffic(t *testing.T) {
	d, err := BuildTCPChain(1, 1)
	if err != nil {
		t.Fatalf("BuildTCPChain: %v", err)
	}
	defer d.Close()
	w := d.World
	if err := DeployAuditLog(w); err != nil {
		t.Fatalf("DeployAuditLog: %v", err)
	}
	const poRef, lcID = "po-integrity", "lc-integrity"
	seedBillOfLading(t, w, poRef)
	actors, err := w.NewActors()
	if err != nil {
		t.Fatalf("NewActors: %v", err)
	}
	ctx := context.Background()
	if _, err := actors.SWTBuyer.RequestLC(ctx, &wetrade.LetterOfCredit{
		LCID: lcID, PORef: poRef, Buyer: "B", Seller: "S", Amount: 100, Currency: "USD",
	}); err != nil {
		t.Fatalf("RequestLC: %v", err)
	}
	if _, err := actors.SWTBuyer.IssueLC(ctx, lcID); err != nil {
		t.Fatalf("IssueLC: %v", err)
	}
	if _, err := actors.SWTSeller.AcceptLC(ctx, lcID); err != nil {
		t.Fatalf("AcceptLC: %v", err)
	}
	client, err := core.NewClient(w.SWT, wetrade.SellerBankOrg, "integrity-client")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}

	peers := append(w.STL.Fabric.AllPeers(), w.SWT.Fabric.AllPeers()...)
	model, heights := make([]worldState, len(peers)), make([]uint64, len(peers))
	for i, p := range peers {
		model[i] = snapshotState(p)
		heights[i] = model[i].height
	}
	intact := func(step string) {
		t.Helper()
		for i, p := range peers {
			model[i].replay(t, p)
			if key := model[i].diff(p); key != "" {
				t.Fatalf("after %s, peer %s's state at %s differs from the snapshot plus the committed writes: a layer wrote into a value it read", step, p.Name(), key)
			}
		}
	}

	// A cold query, then one raw query sent twice: the second is served
	// from STL's attestation cache.
	if _, err := client.RemoteQuery(ctx, core.RemoteQuerySpec{
		Network: tradelens.NetworkID, Contract: tradelens.ChaincodeName,
		Function: tradelens.FnGetBillOfLading, Args: [][]byte{[]byte(poRef)},
	}); err != nil {
		t.Fatalf("cold RemoteQuery: %v", err)
	}
	intact("the cold query")
	q, err := chainQuery(newRawInvoker(t, w), poRef)
	if err != nil {
		t.Fatalf("chainQuery: %v", err)
	}
	hits := w.STL.Relay.Stats().AttestationCacheHits
	for range 2 {
		if _, err := w.SWT.Relay.Query(ctx, q); err != nil {
			t.Fatalf("raw query: %v", err)
		}
		intact("a raw query")
	}
	if w.STL.Relay.Stats().AttestationCacheHits == hits {
		t.Fatal("the repeated query was not served from the attestation cache")
	}

	// Forwarded invokes: the second Append reads the first's committed log.
	var log []byte
	for _, entry := range []string{"first;", "second;"} {
		data, err := client.RemoteInvoke(ctx, core.RemoteQuerySpec{
			Network: tradelens.NetworkID, Contract: AuditChaincodeName, Function: "Append",
			Args: [][]byte{[]byte("integrity"), []byte(entry)},
		})
		if err != nil {
			t.Fatalf("RemoteInvoke %q: %v", entry, err)
		}
		intact("an Append")
		log = data.Result
	}
	if string(log) != "first;second;" {
		t.Fatalf("audit log = %q, want first;second;", log)
	}
	if d.Hubs[0].Servers[0].Relay.Stats().ForwardedInvokes == 0 {
		t.Fatal("the invokes were not forwarded by the hub")
	}

	// The transfer: a fresh query whose bundle SWT's CMDAC validates.
	lc, err := actors.SWTSeller.FetchAndUploadBL(ctx, lcID, poRef)
	if err != nil {
		t.Fatalf("FetchAndUploadBL: %v", err)
	}
	intact("the transfer")
	if lc.BLID != "bl-"+poRef {
		t.Fatalf("recorded B/L = %q", lc.BLID)
	}
	for i, p := range peers {
		if model[i].height == heights[i] {
			t.Fatalf("peer %s committed nothing during the traffic", p.Name())
		}
	}
}
