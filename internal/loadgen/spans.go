package loadgen

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// spanLog is one worker's record of its traced ops, per op kind.
type spanLog map[OpKind][]tracedOp

// tracedOp is one traced op: its latency from falling due, and its total
// time per (relay, stage).
type tracedOp struct {
	latency time.Duration
	times   map[stageKey]time.Duration
}

type stageKey struct{ relay, stage string }

// Dispatch is the loadgen's own stage: the time an op waited between
// falling due and a worker starting it, part of its measured latency but
// of no request's spans.
const Dispatch = "dispatch"

// add logs a traced op that a worker started at started.
func (l *spanLog) add(op Op, started time.Time, spans []wire.Span) {
	if *l == nil {
		*l = spanLog{}
	}
	times := make(map[stageKey]time.Duration, len(spans)+1)
	times[stageKey{"loadgen", Dispatch}] = max(started.Sub(op.Due), 0)
	for _, s := range spans {
		times[stageKey{s.Relay, s.Stage}] += time.Duration(s.DurNanos)
	}
	(*l)[op.Kind] = append((*l)[op.Kind], tracedOp{latency: time.Since(op.Due), times: times})
}

// StageRow is one relay's stage across an op kind's traced ops: its median
// and mean time per op (an op without the stage counts 0) and its mean as
// a share of the kind's mean latency. Nested stages run inside another
// stage of the same relay (trace.Nested) and are left out of the sums.
type StageRow struct {
	Relay  string  `json:"relay"`
	Stage  string  `json:"stage"`
	Nested bool    `json:"nested,omitempty"`
	P50Ms  float64 `json:"p50_ms"`
	MeanMs float64 `json:"mean_ms"`
	Share  float64 `json:"share"`
}

// StageReport is one op kind's span table, ranked by mean time, and the
// paper's split of its latency (arXiv 1911.01064's evaluation, E1–E3 in
// the microbenchmarks) taken from the same live run: E1 end to end, E2
// encryption (every seal and open), E3 proof validation (every hop-chain
// and proof check).
type StageReport struct {
	Ops  int        `json:"ops"`
	Rows []StageRow `json:"rows"`
	// SumP50Ms is the median over the ops of each op's top-level stages
	// added up, and SumMeanMs their mean; against E1, the same ops'
	// latency, they show how much of an op the spans account for.
	SumP50Ms  float64 `json:"sum_p50_ms"`
	SumMeanMs float64 `json:"sum_mean_ms"`
	E1P50Ms   float64 `json:"e1_end_to_end_p50_ms"`
	E1MeanMs  float64 `json:"e1_end_to_end_mean_ms"`
	E2MeanMs  float64 `json:"e2_encryption_mean_ms"`
	E3MeanMs  float64 `json:"e3_validation_mean_ms"`
}

// median returns the middle of sorted-in-place values, in ms.
func median(ms []float64) float64 {
	slices.Sort(ms)
	return ms[len(ms)/2]
}

func mean(ms []float64) float64 {
	var sum float64
	for _, v := range ms {
		sum += v
	}
	return sum / float64(len(ms))
}

// stageReports merges the workers' logs into one report per traced op
// kind, sharing each stage against the kind's mean latency.
func stageReports(logs []spanLog) map[OpKind]*StageReport {
	out := map[OpKind]*StageReport{}
	for _, kind := range OpKinds {
		var all []tracedOp
		for _, l := range logs {
			all = append(all, l[kind]...)
		}
		if len(all) == 0 {
			continue
		}
		keys := map[stageKey]bool{}
		latency, sums := make([]float64, len(all)), make([]float64, len(all))
		for i, op := range all {
			latency[i] = float64(op.latency) / 1e6
			for k, d := range op.times {
				keys[k] = true
				if !trace.Nested(k.stage) {
					sums[i] += float64(d) / 1e6
				}
			}
		}
		rep := &StageReport{Ops: len(all), E1MeanMs: mean(latency), E1P50Ms: median(latency),
			SumMeanMs: mean(sums), SumP50Ms: median(sums)}
		for k := range keys {
			per := make([]float64, len(all))
			for i, op := range all {
				per[i] = float64(op.times[k]) / 1e6
			}
			row := StageRow{Relay: k.relay, Stage: k.stage, Nested: trace.Nested(k.stage), MeanMs: mean(per), P50Ms: median(per)}
			row.Share = row.MeanMs / rep.E1MeanMs
			switch k.stage {
			case trace.Seal, trace.Open:
				rep.E2MeanMs += row.MeanMs
			case trace.Verify, trace.PinVerify:
				rep.E3MeanMs += row.MeanMs
			}
			rep.Rows = append(rep.Rows, row)
		}
		slices.SortFunc(rep.Rows, func(a, b StageRow) int {
			if a.MeanMs != b.MeanMs {
				if a.MeanMs > b.MeanMs {
					return -1
				}
				return 1
			}
			return strings.Compare(a.Relay+a.Stage, b.Relay+b.Stage)
		})
		out[kind] = rep
	}
	return out
}

// table renders the stage report of one op kind.
func (s *StageReport) table(b *strings.Builder, kind OpKind) {
	fmt.Fprintf(b, "\nstages of %s (%d traced ops; nested stages in brackets, not summed)\n", kind, s.Ops)
	fmt.Fprintf(b, "%-24s %-14s %9s %9s %7s\n", "relay", "stage", "p50 ms", "mean ms", "share")
	for _, r := range s.Rows {
		stage := r.Stage
		if r.Nested {
			stage = "[" + stage + "]"
		}
		fmt.Fprintf(b, "%-24s %-14s %9.3f %9.3f %6.1f%%\n", r.Relay, stage, r.P50Ms, r.MeanMs, r.Share*100)
	}
	fmt.Fprintf(b, "top-level stages per op: p50 %.3f ms of %.3f ms end-to-end p50 (%.0f%%), mean %.3f ms of %.3f ms (%.0f%%)\n",
		s.SumP50Ms, s.E1P50Ms, pct(s.SumP50Ms, s.E1P50Ms), s.SumMeanMs, s.E1MeanMs, pct(s.SumMeanMs, s.E1MeanMs))
	fmt.Fprintf(b, "paper split (mean): E1 end-to-end %.3f ms | E2 encryption %.3f ms (%.1f%%) | E3 proof validation %.3f ms (%.1f%%)\n",
		s.E1MeanMs, s.E2MeanMs, pct(s.E2MeanMs, s.E1MeanMs), s.E3MeanMs, pct(s.E3MeanMs, s.E1MeanMs))
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole * 100
}
