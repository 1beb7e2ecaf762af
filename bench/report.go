package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// metric describes one reported number. bound is the relative worsening
// the gate allows; only end-to-end metrics have one.
type metric struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the gated metrics, the same three on every workload, all
// lower-is-better. BENCHMARK.json repeats them (TestManifestMatches). Only
// what repeats on a shared box is gated: op latency and CPU per op do not
// (README.md has the runs), so they are the diagnostics client.p50_ms and
// go.cpu_ms_op below.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_kb_op", "KB", "lower", 0.02},
	{"allocs_op", "count", "lower", 0.02},
}

// Per-layer metrics are ungated attribution; layers are module names.
// README.md says which end-to-end metric each should move on which
// workload. ladderMetrics come from the traced phase (0 in an untraced
// run), windowMetrics from the measured window.
var ladderMetrics = []metric{
	{"core.op_ms", "ms", "lower", 0},
	{"core.client_self_ms", "ms", "lower", 0},
	{"core.query_stage_ms", "ms", "lower", 0},
	{"relay.origin_ms", "ms", "lower", 0},
	{"relay.path_self_ms", "ms", "lower", 0},
	{"relay.source_ms", "ms", "lower", 0},
	{"relay.source_self_ms", "ms", "lower", 0},
	{"relay.driver_ms", "ms", "lower", 0},
	{"fabric.read_ms", "ms", "lower", 0},
	{"fabric.submit_put_ms", "ms", "lower", 0},
	{"fabric.submit_accept_ms", "ms", "lower", 0},
	{"syscc.validate_self_ms", "ms", "lower", 0},
	{"wire.request_bytes", "B", "lower", 0},
	{"wire.response_bytes", "B", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

var windowMetrics = []metric{
	// Counter deltas over the window ÷ completed ops.
	{"proof.sign_ops_op", "1/op", "lower", 0},
	{"cryptoutil.ecdh_ops_op", "1/op", "lower", 0},
	{"cryptoutil.encrypt_ops_op", "1/op", "lower", 0},
	{"relay.attest_hit_share", "share", "higher", 0},
	{"relay.attest_join_share", "share", "higher", 0},
	{"relay.attest_miss_share", "share", "lower", 0},
	{"relay.served_op", "1/op", "lower", 0},
	{"relay.forwarded_op", "1/op", "lower", 0},
	{"relay.sends_op", "1/op", "lower", 0},
	{"relay.invoke_replays_op", "1/op", "lower", 0},
	{"relay.errors_op", "1/op", "lower", 0},
	{"ledger.src_commits_op", "1/op", "lower", 0},
	{"ledger.dst_commits_op", "1/op", "lower", 0},
	// Diagnostics: times and throughput do not repeat on a small shared
	// box (README.md has the numbers), so they are reported, never gated.
	{"client.p50_ms", "ms", "lower", 0},
	{"client.p90_ms", "ms", "lower", 0},
	{"client.p99_ms", "ms", "lower", 0},
	{"client.max_ms", "ms", "lower", 0},
	{"client.ops_s", "1/s", "higher", 0},
	{"client.samples", "count", "higher", 0},
	{"go.cpu_ms_op", "ms", "lower", 0},
	{"go.gc_cycles_s", "1/s", "lower", 0},
	{"go.heap_mb", "MB", "lower", 0},
	{"machine.canary_ms", "ms", "lower", 0},
	{"bench.setup_wall_s", "s", "lower", 0},
	{"bench.leaked_goroutines", "count", "lower", 0},
}

var perLayer = append(append([]metric(nil), ladderMetrics...), windowMetrics...)

// result is one workload run, ready to print.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	endToEnd  map[string]float64
	perLayer  map[string]float64
}

// runConfig sizes a run. The contract's driver sets window (and splits it
// with the ladder when tracing); tests shrink the rest.
type runConfig struct {
	seconds float64 // measured time: the window, or window + ladder when traced
	traced  bool
	setups  int // deployments built and timed; the last one is measured
}

// timedSetups is how many deployments a benchmark run builds and times.
const timedSetups = 3

// ladderShare of a traced run's seconds goes to the probe ladder; the
// window keeps the rest, so the counters still average over thousands of
// ops.
const ladderShare = 0.4

func toDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runWorkload builds, measures, checks and tears down one workload. A
// non-nil error means the run is void (set-up failed, the wrong path was
// measured, an end-state check failed, a goroutine leaked); failed ops are
// reported in the result instead.
func runWorkload(ctx context.Context, wl workload, seed int64, cfg runConfig) (*result, error) {
	baseline := runtime.NumGoroutine()

	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	// Set-up is timed on several fresh deployments and reported as their
	// median: the first build of a process pays cold code and heap growth
	// that later ones do not. The last deployment is the one measured.
	var d *deployment
	var setupS, setupWallS []float64
	for i := 0; i < cfg.setups; i++ {
		if d != nil {
			d.close()
		}
		clock := &refClock{ref: ref}
		if d, err = build(ctx, wl, seed, clock); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, clock.scaled.Seconds())
		setupWallS = append(setupWallS, clock.wall.Seconds())
	}
	w, l, err := d.run(ctx, ref, cfg)
	d.close()
	leaked := leakedGoroutines(baseline)
	if err != nil {
		return nil, err
	}
	if leaked > 0 {
		return nil, fmt.Errorf("%d goroutines outlived the deployment", leaked)
	}

	res := &result{
		workload:  wl.name,
		attempted: w.ops() + w.failed,
		failed:    w.failed,
		correct:   w.failed == 0,
		endToEnd:  make(map[string]float64, len(endToEnd)),
		perLayer:  make(map[string]float64, len(perLayer)),
	}
	res.fill(w, l, median(setupS), median(setupWallS))
	return res, nil
}

// run measures the window, checks that it measured the intended path and
// left the intended end state, and then climbs the probe ladder if the run
// is traced. A window with failed ops skips the checks and the ladder: both
// assume every op completed, and the failures void the run anyway.
func (d *deployment) run(ctx context.Context, ref *reference, cfg runConfig) (*window, *ladder, error) {
	windowS := cfg.seconds
	if cfg.traced {
		windowS *= 1 - ladderShare
	}
	w, err := measure(ctx, d, ref, toDuration(windowS))
	if err != nil {
		return nil, nil, err
	}
	if w.failed > 0 {
		fmt.Fprintf(logOut, "%s: %d ops failed, first: %v\n", d.wl.name, w.failed, w.firstErr)
		return w, nil, nil
	}
	if err := w.intent(d); err != nil {
		return nil, nil, err
	}
	if err := d.audit(ctx); err != nil {
		return nil, nil, err
	}
	if !cfg.traced {
		return w, nil, nil
	}
	l, err := climb(ctx, d, toDuration(cfg.seconds-windowS))
	return w, l, err
}

// leakedGoroutines waits for the goroutine count to return to baseline and
// reports how many are still above it after the grace period.
func leakedGoroutines(baseline int) int {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		n := runtime.NumGoroutine() - baseline
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
	}
}

// fill derives every reported metric from the raw observations; l is nil
// for an untraced run, whose ladder rows stay 0.
func (r *result) fill(w *window, l *ladder, setupS, setupWallS float64) {
	ops := float64(w.ops())
	if ops == 0 {
		ops = 1 // every op failed; keep the report finite
	}
	lat := sortedMillis(w.lat...)
	p50 := percentile(lat, 50)

	e := r.endToEnd
	e["setup_s"] = setupS
	e["alloc_kb_op"] = float64(w.mem.TotalAlloc) / 1024 / ops
	e["allocs_op"] = float64(w.mem.Mallocs) / ops

	p := r.perLayer
	for _, m := range perLayer {
		p[m.name] = 0
	}
	s := w.fleet
	p["proof.sign_ops_op"] = float64(s.SignOps) / ops
	p["cryptoutil.ecdh_ops_op"] = float64(s.ECDHOps) / ops
	p["cryptoutil.encrypt_ops_op"] = float64(s.EncryptOps) / ops
	if proofs := float64(s.AttestationCacheHits + s.AttestationCacheJoins + s.AttestationCacheMisses); proofs > 0 {
		p["relay.attest_hit_share"] = float64(s.AttestationCacheHits) / proofs
		p["relay.attest_join_share"] = float64(s.AttestationCacheJoins) / proofs
		p["relay.attest_miss_share"] = float64(s.AttestationCacheMisses) / proofs
	}
	p["relay.served_op"] = float64(s.QueriesServed+s.InvokesServed) / ops
	p["relay.forwarded_op"] = float64(s.ForwardedQueries+s.ForwardedInvokes) / ops
	p["relay.sends_op"] = float64(s.FanoutAttempts) / ops
	p["relay.invoke_replays_op"] = float64(s.InvokeReplays) / ops
	p["relay.errors_op"] = float64(s.ErrorsReturned) / ops
	p["ledger.src_commits_op"] = float64(w.srcCommits) / ops
	p["ledger.dst_commits_op"] = float64(w.dstCommits) / ops

	p["client.p50_ms"] = p50
	p["client.p90_ms"] = percentile(lat, 90)
	p["client.p99_ms"] = percentile(lat, 99)
	p["client.max_ms"] = percentile(lat, 100)
	p["client.ops_s"] = ops / w.wall.Seconds()
	p["client.samples"] = float64(len(lat))
	p["go.cpu_ms_op"] = float64(w.cpu) / float64(time.Millisecond) / ops
	p["go.gc_cycles_s"] = float64(w.mem.NumGC) / w.wall.Seconds()
	p["go.heap_mb"] = float64(w.mem.HeapAlloc) / (1 << 20)
	p["machine.canary_ms"] = w.canaryMs
	p["bench.setup_wall_s"] = setupWallS
	// bench.leaked_goroutines stays 0: a leak voids the run before this.

	if l == nil {
		return
	}
	depth := l.p50s()
	self := selfTimes(depth[:4]) // the local read is inside the driver, not below it
	p["core.op_ms"], p["core.client_self_ms"] = depth[0], self[0]
	p["relay.origin_ms"], p["relay.path_self_ms"] = depth[1], self[1]
	p["relay.source_ms"], p["relay.source_self_ms"] = depth[2], self[2]
	p["relay.driver_ms"] = self[3]
	p["fabric.read_ms"] = depth[4]
	if len(l.put) > 0 {
		p["core.query_stage_ms"] = percentile(sortedMillis(l.queryStage), 50)
		p["fabric.submit_accept_ms"] = percentile(sortedMillis(l.accept), 50)
		p["fabric.submit_put_ms"] = percentile(sortedMillis(l.put), 50)
		p["syscc.validate_self_ms"] = p["fabric.submit_accept_ms"] - p["fabric.submit_put_ms"]
	}
	p["wire.request_bytes"] = float64(l.requestBytes)
	p["wire.response_bytes"] = float64(l.responseBytes)
	p["trace.overhead_pct"] = (depth[0] - p50) / p50 * 100
}

// printTable writes every metric by name and unit, one per line.
func (r *result) printTable(out io.Writer, traced bool) {
	fmt.Fprintf(out, "workload %s: %d ops attempted, %d failed, correct=%v\n", r.workload, r.attempted, r.failed, r.correct)
	for _, m := range endToEnd {
		fmt.Fprintf(out, "  %-28s %14.4f %-6s (gated, bound %.2f)\n", m.name, r.endToEnd[m.name], m.unit, m.bound)
	}
	layers := windowMetrics
	if traced {
		layers = perLayer
	}
	for _, m := range layers {
		fmt.Fprintf(out, "  %-28s %14.4f %s\n", m.name, r.perLayer[m.name], m.unit)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonLine is the contract's result object: end-to-end metrics for an
// untraced run, per-layer metrics for a traced one.
func (r *result) jsonLine(traced bool) ([]byte, error) {
	defs, values := endToEnd, r.endToEnd
	if traced {
		defs, values = perLayer, r.perLayer
	}
	metrics := make(map[string]jsonMetric, len(defs))
	for _, m := range defs {
		metrics[m.name] = jsonMetric{Value: values[m.name], Unit: m.unit}
	}
	return json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
}
