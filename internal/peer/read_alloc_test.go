package peer_test

import (
	"testing"

	"repro/internal/apps/tradelens"
	"repro/internal/chaincode"
	"repro/internal/endorsement"
	"repro/internal/statedb"
)

// Sinks keep results escaping, as they do at every real call site.
var (
	sinkString  string
	sinkStrings []string
	sinkBytes   []byte
	sinkSim     *chaincode.SimResult
)

// TestReadPathAllocations is the allocation tripwire of the chaincode read
// path: key building, the policy's organization list and a warm relayed
// GetBillOfLading, which runs TradeLensCC → ECC → CMDAC nested, evaluated
// without and with a read set. A change may lower a row, never raise it.
func TestReadPathAllocations(t *testing.T) {
	p, admitted, _ := tradeWorldPeer(t)
	read := relayed(invocation(tradelens.ChaincodeName, tradelens.FnGetBillOfLading, "po-1"), admitted)
	// One cold call of each fills the per-process memos (ECC rule set,
	// verifier per config, parsed certificates).
	if _, err := p.Query(read); err != nil {
		t.Fatalf("Query: %v", err)
	}
	if _, err := p.QueryRW(read); err != nil {
		t.Fatalf("QueryRW: %v", err)
	}
	vp := endorsement.MustParse("OR(AND('org-a','org-b'), OutOf(1,'org-c.peer','org-a'))")
	for _, row := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"statedb.CompositeKey", 1, func() { sinkString, _ = statedb.CompositeKey("shipment", "po-1001", "leg-2") }},
		{"statedb.CompositeRange", 1, func() { sinkString, _, _ = statedb.CompositeRange("shipment", "po-1001") }},
		{"warm Policy.Orgs", 0, func() { sinkStrings = vp.Orgs() }},
		{"warm relayed peer.Query", 15, func() { sinkBytes, _ = p.Query(read) }},
		{"warm relayed peer.QueryRW", 19, func() { sinkSim, _ = p.QueryRW(read) }},
	} {
		if got := testing.AllocsPerRun(100, row.fn); got > row.max {
			t.Errorf("%s: %v allocations, want <= %v", row.name, got, row.max)
		} else {
			t.Logf("%s: %v allocations", row.name, got)
		}
	}
}
