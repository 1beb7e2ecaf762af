// Command bench is the repository's benchmark: four closed-loop workloads
// over an in-process TCP relay deployment, three gated end-to-end metrics,
// and a probe ladder that attributes latency to layers from outside the
// program. README.md defines every metric and how to run it.
//
// It is one OS process: it starts no child, listens only on 127.0.0.1:0,
// closes every deployment it builds and checks that no goroutine outlives
// it, and ends by itself — on completion, on SIGINT/SIGTERM, when its
// parent disappears, or when a workload overruns its budget.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"
)

// logOut takes progress and diagnostics; results go to standard output.
var logOut io.Writer = os.Stderr

func main() {
	var (
		name   = flag.String("workload", "all", "workload to run, or all: query-cold, query-hot, transfer, invoke-3hop")
		seed   = flag.Int64("seed", 1, "seed of the key order; the same seed gives the same requests")
		secs   = flag.Float64("seconds", 25, "measured seconds per workload (window, or window + probe ladder with -trace 1)")
		trace  = flag.Int("trace", 0, "1 adds the probe ladder and makes the result line carry the per-layer metrics")
		budget = flag.Duration("budget", 90*time.Second, "per-workload watchdog: dump goroutine stacks and exit 2 when exceeded")
		agreeN = flag.Int("agree", 0, "repeatability self-check: run every workload N times and compare the half-sets' medians with the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *secs <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(64)
	}
	selected := workloads
	if *name != "all" {
		wl, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(64)
		}
		selected = []workload{wl}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go exitWithParent(os.Getppid())

	cfg := runConfig{seconds: *secs, traced: *trace == 1, setups: timedSetups}
	var err error
	if *agreeN > 0 {
		err = agree(ctx, os.Stdout, *agreeN, *seed, cfg, *budget)
	} else {
		err = runAll(ctx, os.Stdout, selected, *seed, cfg, *budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// runAll runs the selected workloads in order and prints, for each, the
// metric table and then the one-line JSON result.
func runAll(ctx context.Context, out io.Writer, selected []workload, seed int64, cfg runConfig, budget time.Duration) error {
	for _, wl := range selected {
		res, err := guarded(ctx, wl, seed, cfg, budget)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		res.printTable(out, cfg.traced)
		line, err := res.jsonLine(cfg.traced)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", line)
		if !res.correct {
			return fmt.Errorf("%s: %d of %d ops failed", wl.name, res.failed, res.attempted)
		}
	}
	return nil
}

// guarded is runWorkload under the watchdog: a workload that has not
// finished within budget has hung, so dump every goroutine and leave.
func guarded(ctx context.Context, wl workload, seed int64, cfg runConfig, budget time.Duration) (*result, error) {
	watchdog := time.AfterFunc(budget, func() {
		fmt.Fprintf(os.Stderr, "bench: %s exceeded its %s budget; goroutines:\n", wl.name, budget)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(2)
	})
	defer watchdog.Stop()
	return runWorkload(ctx, wl, seed, cfg)
}

// exitWithParent ends the process when the process that launched it is
// gone (the kernel re-parents an orphan, so the parent ID changes): a
// killed `go run` or test driver must not leave a benchmark running.
func exitWithParent(parent int) {
	for range time.Tick(250 * time.Millisecond) {
		if os.Getppid() != parent {
			fmt.Fprintln(os.Stderr, "bench: parent process is gone; exiting")
			os.Exit(3)
		}
	}
}
