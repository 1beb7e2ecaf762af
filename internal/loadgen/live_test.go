package loadgen

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestRunLiveSteadySmoke drives a small steady workload against a real
// two-relay TCP deployment: zero protocol errors, a clean exactly-once
// audit, warm queries actually hitting the attestation cache, and a
// well-formed JSON report.
func TestRunLiveSteadySmoke(t *testing.T) {
	cfg := &Config{
		Clients: 4, Rate: 60, Duration: 2 * time.Second,
		Mix:  Mix{QueryPct: 50, WarmQueryPct: 30, InvokePct: 15, SubscribePct: 5},
		Keys: 8, Seed: 5, Replicas: 2,
	}
	report, err := RunLive(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	if report.ProtocolErrors() != 0 {
		t.Fatalf("protocol errors = %d, want 0 (budget %v)", report.ProtocolErrors(), report.ErrorBudget)
	}
	if report.OK < 60 {
		t.Fatalf("completed ops = %d, want a healthy fraction of the ~120 scheduled", report.OK)
	}
	if report.Overall.P50 <= 0 || report.Overall.P999 < report.Overall.P50 {
		t.Fatalf("implausible latency summary: %+v", report.Overall)
	}
	if report.Audit == nil || !report.Audit.Clean() {
		t.Fatalf("exactly-once audit = %+v, want clean", report.Audit)
	}
	if report.Audit.InvokesIssued == 0 || report.Audit.ValidCommits != report.Audit.InvokesIssued {
		t.Fatalf("audit = %+v, want one valid commit per issued invoke", report.Audit)
	}
	if report.Relay.AttestationCacheHits == 0 {
		t.Fatalf("warm queries produced no attestation cache hits: %+v", report.Relay.Stats)
	}
	if report.Relay.QueriesServed == 0 || report.Relay.InvokesServed == 0 {
		t.Fatalf("relay window missing activity: %+v", report.Relay.Stats)
	}

	path := filepath.Join(t.TempDir(), "BENCH_loadgen.json")
	if err := report.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read report: %v", err)
	}
	var parsed Report
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if parsed.OK != report.OK || parsed.Overall.P999 != report.Overall.P999 {
		t.Fatalf("round-tripped report differs: %+v vs %+v", parsed.Overall, report.Overall)
	}
	if report.Table() == "" {
		t.Fatal("empty human-readable table")
	}
}

// TestRunLiveMultiHopSmoke drives the chain topology: two forwarding hub
// tiers between the origin and the source. Every query answer must carry a
// verified 2-pin hop path (the driver fails the op otherwise), invokes
// commit through the chain exactly once, and the fleet window must show
// forwarded traffic on the hubs.
func TestRunLiveMultiHopSmoke(t *testing.T) {
	cfg := &Config{
		Clients: 4, Rate: 50, Duration: 2 * time.Second,
		Mix:  Mix{QueryPct: 55, WarmQueryPct: 20, InvokePct: 25},
		Keys: 8, Seed: 7,
		HubHops: 2,
	}
	report, err := RunLive(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunLive over chain: %v", err)
	}
	if report.ProtocolErrors() != 0 {
		t.Fatalf("protocol errors = %d over chain, want 0 (budget %v, samples %v)",
			report.ProtocolErrors(), report.ErrorBudget, report.ErrorSamples)
	}
	if report.OK == 0 {
		t.Fatal("no operation completed over the chain")
	}
	if report.Audit == nil || !report.Audit.Clean() || report.Audit.InvokesIssued == 0 {
		t.Fatalf("audit = %+v, want clean with invokes issued", report.Audit)
	}
	if report.Relay.ForwardedQueries == 0 || report.Relay.ForwardedInvokes == 0 {
		t.Fatalf("fleet window shows no forwarded traffic: %+v", report.Relay.Stats)
	}
}

// TestRunLiveChurnSmoke injects relay kills and restarts mid-run. The run
// must finish (error budget, not abort), the exactly-once invariant must
// survive the churn, and no failure may be a protocol error.
func TestRunLiveChurnSmoke(t *testing.T) {
	cfg := &Config{
		Clients: 4, Rate: 50, Duration: 3 * time.Second,
		Mix:  Mix{QueryPct: 50, WarmQueryPct: 20, InvokePct: 25, SubscribePct: 5},
		Keys: 8, Seed: 6,
		Replicas: 3, Churn: true, ChurnInterval: time.Second,
	}
	report, err := RunLive(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunLive under churn: %v", err)
	}
	if report.Churn == 0 {
		t.Fatal("churn run injected no kills")
	}
	if report.ProtocolErrors() != 0 {
		t.Fatalf("protocol errors = %d under churn, want 0 (budget %v, samples %v)",
			report.ProtocolErrors(), report.ErrorBudget, report.ErrorSamples)
	}
	if report.Audit == nil || report.Audit.DuplicateCommits != 0 {
		t.Fatalf("audit = %+v, want zero duplicate commits under churn", report.Audit)
	}
	if report.OK == 0 {
		t.Fatal("no operation completed under churn")
	}
}

// TestRunLiveWarmQueriesHitCache: every (worker, key) pair is asked once
// before the measured window, so the window's warm queries are
// attestation-cache hits, not first touches that build a proof.
func TestRunLiveWarmQueriesHitCache(t *testing.T) {
	cfg := &Config{
		Clients: 4, Rate: 60, Duration: 2 * time.Second,
		Mix:  Mix{WarmQueryPct: 100},
		Keys: 16, Seed: 8,
	}
	report, err := RunLive(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	if report.Failed != 0 || report.OK < 60 {
		t.Fatalf("ok = %d, failed = %d (budget %v), want every one of the ~120 warm queries to succeed", report.OK, report.Failed, report.ErrorBudget)
	}
	if share := report.Relay.AttestationCacheHitRate; share < 0.9 {
		t.Fatalf("warm hit share = %.3f (%+v), want >= 0.9", share, report.Relay.Stats)
	}
	t.Logf("warm hit share %.3f over %d queries", report.Relay.AttestationCacheHitRate, report.OK)
}
