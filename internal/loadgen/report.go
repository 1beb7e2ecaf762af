package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/relay"
)

// DefaultOutput is where reports land unless the config says otherwise.
const DefaultOutput = "BENCH_loadgen.json"

// LatencyMs is a latency summary converted from the histogram's
// microseconds to milliseconds for the report.
type LatencyMs struct {
	Mean float64 `json:"mean_ms"`
	P50  float64 `json:"p50_ms"`
	P90  float64 `json:"p90_ms"`
	P99  float64 `json:"p99_ms"`
	P999 float64 `json:"p999_ms"`
	Max  float64 `json:"max_ms"`
}

func latencyMs(s Summary) LatencyMs {
	ms := func(us int64) float64 { return float64(us) / 1000 }
	return LatencyMs{
		Mean: s.Mean / 1000,
		P50:  ms(s.P50), P90: ms(s.P90), P99: ms(s.P99), P999: ms(s.P999), Max: ms(s.Max),
	}
}

// OpReport is one operation class's outcome.
type OpReport struct {
	OK      uint64            `json:"ok"`
	Errors  map[string]uint64 `json:"errors,omitempty"`
	Latency LatencyMs         `json:"latency"`
}

// RelayWindow is the fleet-merged relay activity during the run: the
// difference between each relay's counters after and before, summed.
type RelayWindow struct {
	relay.Stats
	AttestationCacheHitRate float64 `json:"attestation_cache_hit_rate"`
}

// Audit is the post-run exactly-once verdict, judged against the source
// ledger: every invoke the generator issued must have exactly one valid
// commit, no matter how many retries or relay deaths happened in between.
type Audit struct {
	InvokesIssued    int `json:"invokes_issued"`
	ValidCommits     int `json:"valid_commits"`
	DuplicateCommits int `json:"duplicate_commits"`
	MissingCommits   int `json:"missing_commits"`
}

// Clean reports whether the exactly-once invariant held.
func (a Audit) Clean() bool { return a.DuplicateCommits == 0 && a.MissingCommits == 0 }

// Report is the complete outcome of one load-generation run — what
// BENCH_loadgen.json holds.
type Report struct {
	Preset       string    `json:"preset,omitempty"`
	Config       Config    `json:"config"`
	StartedAt    time.Time `json:"started_at"`
	WallSec      float64   `json:"wall_sec"`
	OfferedRate  float64   `json:"offered_rate"`
	AchievedRate float64   `json:"achieved_rate"`

	Issued uint64 `json:"issued"`
	OK     uint64 `json:"ok"`
	Failed uint64 `json:"failed"`

	// ErrorBudget is the failure count per class; availability failures
	// are the priced-in cost of churn, protocol failures are defects.
	ErrorBudget map[string]uint64 `json:"error_budget,omitempty"`
	// ErrorSamples holds the first few error messages per class, for
	// diagnosing a budget breach from the report alone.
	ErrorSamples map[string][]string `json:"error_samples,omitempty"`

	Overall LatencyMs           `json:"overall"`
	Ops     map[OpKind]OpReport `json:"ops"`
	Relay   RelayWindow         `json:"relay"`
	Audit   *Audit              `json:"exactly_once,omitempty"`
	Churn   int                 `json:"churn_kills,omitempty"`
	// Stages is each traced op kind's span table (Config.Spans).
	Stages map[OpKind]*StageReport `json:"stages,omitempty"`
}

// NewReport assembles a report from run statistics and the relay window.
func NewReport(cfg *Config, stats *RunStats, window relay.Stats, startedAt time.Time) *Report {
	r := &Report{
		Preset:       cfg.Preset,
		Config:       *cfg,
		StartedAt:    startedAt,
		WallSec:      stats.Wall.Seconds(),
		OfferedRate:  cfg.Rate,
		AchievedRate: stats.AchievedRate(),
		Issued:       stats.Issued,
		OK:           stats.OK,
		Failed:       stats.Failed,
		ErrorBudget:  stats.ErrsByClass,
		ErrorSamples: stats.ErrorSamples,
		Overall:      latencyMs(stats.All().Summarize()),
		Ops:          make(map[OpKind]OpReport, len(OpKinds)),
		Relay: RelayWindow{
			Stats:                   window,
			AttestationCacheHitRate: window.AttestationCacheHitRate(),
		},
	}
	for _, k := range OpKinds {
		h := stats.Latency[k]
		if h.Count() == 0 && len(stats.ErrsByKind[k]) == 0 {
			continue
		}
		r.Ops[k] = OpReport{
			OK:      stats.OKByKind[k],
			Errors:  stats.ErrsByKind[k],
			Latency: latencyMs(h.Summarize()),
		}
	}
	return r
}

// ProtocolErrors returns the count of budget-breaking failures.
func (r *Report) ProtocolErrors() uint64 { return r.ErrorBudget[ErrClassProtocol] }

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	if path == "" {
		path = DefaultOutput
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("loadgen: marshal report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("loadgen: write report: %w", err)
	}
	return nil
}

// Table renders the report for humans.
func (r *Report) Table() string {
	var b strings.Builder
	name := r.Preset
	if name == "" {
		name = "custom"
	}
	fmt.Fprintf(&b, "loadgen %s: %d clients, offered %.0f ops/s for %.1fs (achieved %.1f ops/s)\n",
		name, r.Config.Clients, r.OfferedRate, r.WallSec, r.AchievedRate)
	fmt.Fprintf(&b, "ops: %d issued, %d ok, %d failed", r.Issued, r.OK, r.Failed)
	if len(r.ErrorBudget) > 0 {
		classes := make([]string, 0, len(r.ErrorBudget))
		for c := range r.ErrorBudget {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		parts := make([]string, 0, len(classes))
		for _, c := range classes {
			parts = append(parts, fmt.Sprintf("%s=%d", c, r.ErrorBudget[c]))
		}
		fmt.Fprintf(&b, " (%s)", strings.Join(parts, ", "))
	}
	b.WriteString("\n\n")

	fmt.Fprintf(&b, "%-11s %9s %9s %9s %9s %9s %9s\n", "op", "ok", "p50 ms", "p90 ms", "p99 ms", "p999 ms", "max ms")
	row := func(name string, ok uint64, l LatencyMs) {
		fmt.Fprintf(&b, "%-11s %9d %9.2f %9.2f %9.2f %9.2f %9.2f\n", name, ok, l.P50, l.P90, l.P99, l.P999, l.Max)
	}
	for _, k := range OpKinds {
		if op, present := r.Ops[k]; present {
			row(string(k), op.OK, op.Latency)
		}
	}
	row("overall", r.OK, r.Overall)

	s := r.Relay
	fmt.Fprintf(&b, "\nrelay window: queries=%d invokes=%d replays=%d breakerSkips=%d attCacheHit=%.1f%%",
		s.QueriesServed, s.InvokesServed, s.InvokeReplays, s.BreakerSkips, s.AttestationCacheHitRate*100)
	if s.ForwardedQueries > 0 || s.ForwardedInvokes > 0 {
		fmt.Fprintf(&b, " fwdQueries=%d fwdInvokes=%d", s.ForwardedQueries, s.ForwardedInvokes)
	}
	b.WriteString("\n")
	// Crypto-op totals locate the expensive primitives: with sessioned
	// ECIES and overlapping queries sharing windows, ECDH and Sign per
	// served query drop well below the attestor count.
	fmt.Fprintf(&b, "crypto ops: ecdh=%d sign=%d encrypt=%d", s.ECDHOps, s.SignOps, s.EncryptOps)
	if s.QueriesServed > 0 {
		fmt.Fprintf(&b, " (per query: ecdh=%.2f sign=%.2f encrypt=%.2f)",
			float64(s.ECDHOps)/float64(s.QueriesServed),
			float64(s.SignOps)/float64(s.QueriesServed),
			float64(s.EncryptOps)/float64(s.QueriesServed))
	}
	b.WriteString("\n")
	if r.Churn > 0 {
		fmt.Fprintf(&b, "churn: %d relay kills injected\n", r.Churn)
	}
	if len(r.ErrorSamples) > 0 {
		classes := make([]string, 0, len(r.ErrorSamples))
		for c := range r.ErrorSamples {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			for _, msg := range r.ErrorSamples[c] {
				fmt.Fprintf(&b, "sample %s error: %s\n", c, msg)
			}
		}
	}
	for _, k := range OpKinds {
		if st := r.Stages[k]; st != nil {
			st.table(&b, k)
		}
	}
	if r.Audit != nil {
		verdict := "exactly-once HELD"
		if !r.Audit.Clean() {
			verdict = "exactly-once VIOLATED"
		}
		fmt.Fprintf(&b, "audit: %d invokes issued, %d valid commits, %d duplicate, %d missing — %s\n",
			r.Audit.InvokesIssued, r.Audit.ValidCommits, r.Audit.DuplicateCommits, r.Audit.MissingCommits, verdict)
	}
	return b.String()
}
