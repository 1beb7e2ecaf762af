package peer_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/apps/tradelens"
	"repro/internal/chaincode"
	"repro/internal/endorsement"
	"repro/internal/statedb"
	"repro/internal/syscc"
	"repro/internal/wire"
)

// Sinks keep results escaping, as they do at every real call site.
var (
	sinkString  string
	sinkStrings []string
	sinkBytes   []byte
	sinkSim     chaincode.SimResult
)

// TestReadPathAllocations is the allocation tripwire of the chaincode read
// path: key building, the policy's organization list, a warm relayed
// GetBillOfLading, which runs TradeLensCC → ECC → CMDAC nested, evaluated
// without and with a read set, and a client's CMDAC lookup through its
// gateway. A key built before is the interned one, and the nested calls
// share the invocation's one frame, so a warm relayed read allocates that
// frame (its read set inside) and the rule scan (the ECC's argument list
// is pooled), and a gateway lookup its frame alone, with string arguments
// viewed in the frame's own room. A change may lower a row, never raise it.
// The last row holds the read in place: the bytes a warm relayed QueryRW
// allocates do not grow when the requesting network's recorded
// configuration, which ECC.Authorize reads on every query, grows from 2
// organizations to 16.
func TestReadPathAllocations(t *testing.T) {
	w, p, admitted, _ := tradeWorldPeer(t)
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
	// A client's CMDAC lookups, as core.Client makes two per remote query.
	gw := w.SWTAdmin
	policyArgs := [][]byte{[]byte(tradelens.NetworkID), []byte(tradelens.ChaincodeName)}
	if _, err := gw.Evaluate(syscc.CMDACName, syscc.CMDACGetVerificationPolicy, policyArgs...); err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	for _, row := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"statedb.CompositeKey", 0, func() { sinkString, _ = statedb.CompositeKey("shipment", "po-1001", "leg-2") }},
		{"statedb.CompositeRange", 1, func() { sinkString, _, _ = statedb.CompositeRange("shipment", "po-1001") }},
		{"warm Policy.Orgs", 0, func() { sinkStrings = vp.Orgs() }},
		{"warm relayed peer.Query", 2, func() { sinkBytes, _ = p.Query(read) }},
		{"warm relayed peer.QueryRW", 2, func() { sinkSim, _ = p.QueryRW(read) }},
		{"warm Gateway.Evaluate", 1, func() {
			sinkBytes, _ = gw.Evaluate(syscc.CMDACName, syscc.CMDACGetVerificationPolicy, policyArgs...)
		}},
		{"warm Gateway.EvaluateString", 1, func() {
			sinkBytes, _ = gw.EvaluateString(syscc.CMDACName, syscc.CMDACGetVerificationPolicy, tradelens.NetworkID, tradelens.ChaincodeName)
		}},
	} {
		if got := testing.AllocsPerRun(100, row.fn); got > row.max {
			t.Errorf("%s: %v allocations, want <= %v", row.name, got, row.max)
		} else {
			t.Logf("%s: %v allocations", row.name, got)
		}
	}

	queryRW := func() { sinkSim, _ = p.QueryRW(read) }
	cfg := w.SWT.ExportConfig()
	small := bytesPerRun(200, queryRW)
	for i := len(cfg.Orgs); i < 16; i++ {
		// Further organizations under the first one's root: the verifier
		// parses each, and the requester's organization is unchanged.
		cfg.Orgs = append(cfg.Orgs, wire.OrgConfig{OrgID: fmt.Sprintf("org-pad-%02d", i), RootCertPEM: cfg.Orgs[0].RootCertPEM})
	}
	if err := w.STL.ConfigureForeignNetwork(w.STLAdmin, cfg); err != nil {
		t.Fatalf("record the 16-organization configuration: %v", err)
	}
	if _, err := p.QueryRW(read); err != nil { // builds the new config's verifier
		t.Fatalf("QueryRW under the 16-organization configuration: %v", err)
	}
	large := bytesPerRun(200, queryRW)
	t.Logf("warm relayed peer.QueryRW: %d B under a %d B configuration of 2 organizations, %d B under %d B of 16",
		small, len(w.SWT.ExportConfig().Marshal()), large, len(cfg.Marshal()))
	if large > small+64 {
		t.Errorf("warm relayed peer.QueryRW allocates %d B under a 16-organization configuration, %d B under 2: the configuration read is copied", large, small)
	}
}

// bytesPerRun returns the bytes fn allocates per call, averaged over runs
// warm calls on one P, as testing.AllocsPerRun counts allocations.
func bytesPerRun(runs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
