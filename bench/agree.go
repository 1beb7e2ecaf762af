package main

import (
	"context"
	"fmt"
	"io"
	"time"
)

// agreeShare of a bound is the most two same-code half-sets may disagree by
// before the metric is considered too noisy to gate at that bound.
const agreeShare = 0.7

// agree is the repeatability self-check: it runs every workload n times,
// alternating the workload order between rounds, and compares the medians
// of the first and second half of the runs per gated metric — what a gate
// comparing two commits would see if the commits were identical.
func agree(ctx context.Context, out io.Writer, n int, seed int64, cfg runConfig, budget time.Duration) error {
	if n < 2 {
		return fmt.Errorf("-agree needs at least 2 runs")
	}
	cfg.traced = false
	values := make(map[string]map[string][]float64) // workload → metric → one value per round
	for _, wl := range workloads {
		values[wl.name] = make(map[string][]float64)
	}
	for round := 0; round < n; round++ {
		order := append([]workload(nil), workloads...)
		if round%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, wl := range order {
			start := time.Now()
			res, err := guarded(ctx, wl, seed+int64(round), cfg, budget)
			if err != nil {
				return fmt.Errorf("round %d, %s: %w", round, wl.name, err)
			}
			if !res.correct {
				return fmt.Errorf("round %d, %s: %d of %d ops failed", round, wl.name, res.failed, res.attempted)
			}
			fmt.Fprintf(logOut, "round %d/%d %-12s done in %.1fs:", round+1, n, wl.name, time.Since(start).Seconds())
			for _, m := range endToEnd {
				values[wl.name][m.name] = append(values[wl.name][m.name], res.endToEnd[m.name])
				fmt.Fprintf(logOut, " %s=%.4f", m.name, res.endToEnd[m.name])
			}
			fmt.Fprintf(logOut, " (set-up wall %.4f s)\n", res.perLayer["bench.setup_wall_s"])
		}
	}

	fmt.Fprintf(out, "%-12s %-12s %12s %12s %8s %8s  %s\n", "workload", "metric", "median A", "median B", "gap", "bound", "verdict")
	noisy := 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			v := values[wl.name][m.name]
			a, b := median(v[:n/2]), median(v[n/2:])
			gap := relGap(a, b)
			verdict := "ok"
			if gap > agreeShare*m.bound {
				verdict = "NOISY"
				noisy++
			}
			fmt.Fprintf(out, "%-12s %-12s %12.4f %12.4f %7.2f%% %7.0f%%  %s\n",
				wl.name, m.name, a, b, gap*100, m.bound*100, verdict)
		}
	}
	if noisy > 0 {
		return fmt.Errorf("%d metric(s) disagreed by more than %.0f%% of their bound between two sets of the same code", noisy, agreeShare*100)
	}
	return nil
}
