package loadgen

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestStageReports: per op kind, rows rank stages by mean, an op without a
// stage counts 0 for it, nested stages stay out of the per-op sums, and
// E2 and E3 add up seals and opens, and hop-chain and proof checks.
func TestStageReports(t *testing.T) {
	ms := func(v float64) uint64 { return uint64(v * 1e6) }
	due := time.Now().Add(-10 * time.Millisecond)
	var log spanLog
	for _, spans := range [][]wire.Span{
		{{Relay: "src", Stage: trace.PeerRead, DurNanos: ms(2)}, {Relay: "src", Stage: trace.Serve, DurNanos: ms(3)},
			{Relay: "src", Stage: trace.Seal, DurNanos: ms(1)}, {Relay: "cli", Stage: trace.Open, DurNanos: ms(1)},
			{Relay: "cli", Stage: trace.Verify, DurNanos: ms(2)}},
		{{Relay: "src", Stage: trace.PeerRead, DurNanos: ms(4)}, {Relay: "src", Stage: trace.Serve, DurNanos: ms(5)},
			{Relay: "cli", Stage: trace.PinVerify, DurNanos: ms(1)}},
	} {
		log.add(Op{Kind: OpQuery, Due: due}, due, spans)
	}
	reps := stageReports([]spanLog{log})
	rep := reps[OpQuery]
	if len(reps) != 1 || rep == nil || rep.Ops != 2 {
		t.Fatalf("reports %v, want one query report over 2 ops", reps)
	}
	if rep.Rows[0].Stage != trace.Serve || !rep.Rows[0].Nested || rep.Rows[1].Stage != trace.PeerRead {
		t.Fatalf("rows %+v, want serve (nested) then peer_read first", rep.Rows)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-3 }
	for _, r := range rep.Rows {
		if r.Stage == trace.Verify && (!near(r.MeanMs, 1) || !near(r.P50Ms, 2)) {
			t.Fatalf("verify row %+v, want mean 1 (0 on the op without it) and p50 2", r)
		}
	}
	// Per op: 2+1+2 = 5 and 4+1 = 5 top-level ms; serve and seal nested.
	if !near(rep.SumMeanMs, 5) || !near(rep.SumP50Ms, 5) {
		t.Fatalf("top-level sums %v / %v, want 5 ms", rep.SumMeanMs, rep.SumP50Ms)
	}
	if !near(rep.E2MeanMs, 1) || !near(rep.E3MeanMs, 1.5) {
		t.Fatalf("E2 %v, E3 %v; want 1 and 1.5 ms", rep.E2MeanMs, rep.E3MeanMs)
	}
	if rep.E1MeanMs < 10 {
		t.Fatalf("E1 %v ms, want the ops' latency from due (≥ 10 ms)", rep.E1MeanMs)
	}
}

// TestRunLiveTracedStages: a traced run over a two-hub chain reports, for
// each op kind it ran, stages from the source and the origin, and per-op
// top-level sums that account for most of the latency and never more.
func TestRunLiveTracedStages(t *testing.T) {
	cfg := &Config{
		Clients: 2, Rate: 40, Duration: time.Second,
		Mix:  Mix{QueryPct: 50, WarmQueryPct: 25, InvokePct: 25},
		Keys: 4, Seed: 9, HubHops: 2, Spans: true,
	}
	report, err := RunLive(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	if report.Failed != 0 {
		t.Fatalf("%d failed ops: %v", report.Failed, report.ErrorSamples)
	}
	for kind, rep := range report.Stages {
		stages := map[string]bool{}
		for _, r := range rep.Rows {
			stages[r.Relay+" "+r.Stage] = true
		}
		for _, want := range []string{tradelens.NetworkID + " " + trace.Serve, wetrade.NetworkID + " " + trace.Queue, "loadgen " + Dispatch} {
			if !stages[want] {
				t.Errorf("%s: no %q row in %v", kind, want, stages)
			}
		}
		if rep.SumMeanMs > rep.E1MeanMs*1.01 || rep.SumMeanMs < rep.E1MeanMs/2 {
			t.Errorf("%s: top-level stages add to %.3f ms of %.3f ms", kind, rep.SumMeanMs, rep.E1MeanMs)
		}
	}
	if report.Stages[OpQuery] == nil || report.Stages[OpInvoke] == nil {
		t.Fatalf("stage reports for %v, want query and invoke", report.Stages)
	}
	if table := report.Table(); !strings.Contains(table, "stages of invoke") || !strings.Contains(table, "E3 proof validation") {
		t.Fatalf("table lacks the stage report:\n%s", table)
	}
}
