package fabric

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/chaincode"
	"repro/internal/msp"
)

// TestValueIsolationPutStateRewrite: a chaincode that rewrites its write
// buffer after PutState, once during simulation and again after the block
// has committed, changes no peer's committed value. Every peer stores the
// block's write value itself (statedb.ApplyWrites copies nothing), so
// PutState's copy is all that stands between a chaincode's buffer and the
// committed state of the four peers. Run it under the race detector too:
// the peers share those bytes, so any writer to them is a data race.
func TestValueIsolationPutStateRewrite(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	n := newFourPeerNetwork(t)
	var (
		mu   sync.Mutex
		bufs [][]byte // every endorser's buffer, kept past the commit
	)
	reuse := chaincode.Func(func(stub chaincode.Stub) ([]byte, error) {
		buf := []byte("committed")
		if err := stub.PutState("k", buf); err != nil {
			return nil, err
		}
		copy(buf, "rewritten")
		mu.Lock()
		bufs = append(bufs, buf)
		mu.Unlock()
		return nil, nil
	})
	if err := n.Deploy("reuse", reuse, "AND('org-a','org-b')"); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	orgA, _ := n.Org("org-a")
	client, err := orgA.CA.Issue("client", msp.RoleClient)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	if _, err := n.Gateway(client).Submit("reuse", "put"); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	mu.Lock()
	for _, buf := range bufs {
		copy(buf, "afterward")
	}
	endorsers := len(bufs)
	mu.Unlock()
	if endorsers != 2 {
		t.Fatalf("%d endorsers ran the chaincode, want 2", endorsers)
	}
	for _, p := range n.AllPeers() {
		if vv, ok := p.State().Get("reuse", "k"); !ok || string(vv.Value) != "committed" {
			t.Errorf("peer %s commits %q (present %v), want %q", p.Name(), vv.Value, ok, "committed")
		}
	}
}
