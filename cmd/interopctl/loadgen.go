package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

// runLoadgen resolves the effective configuration — preset, then JSON
// config file, then explicit flags, each layer overriding the last — and
// drives one load-generation run against a fresh TCP deployment.
func runLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	preset := fs.String("preset", "steady-query",
		fmt.Sprintf("workload preset: %s", strings.Join(loadgen.PresetNames(), ", ")))
	configPath := fs.String("config", "", "JSON config file layered over the preset")
	clients := fs.Int("clients", 0, "concurrent simulated clients")
	rate := fs.Float64("rate", 0, "target offered rate, ops/sec across all clients")
	duration := fs.Duration("duration", 0, "length of the arrival schedule")
	keys := fs.Int("keys", 0, "hot key space size (seeded purchase orders)")
	zipf := fs.Float64("zipf", 0, "zipf skew exponent for key selection (>1)")
	arrival := fs.String("arrival", "", "inter-arrival law: poisson or uniform")
	queryPct := fs.Int("query-pct", -1, "cold query percentage of the mix")
	warmPct := fs.Int("warm-pct", -1, "warm (attestation-cached) query percentage")
	invokePct := fs.Int("invoke-pct", -1, "writable invoke percentage")
	subscribePct := fs.Int("subscribe-pct", -1, "event subscription percentage")
	hubHops := fs.Int("hub-hops", -1, "intermediate forwarding hub networks between origin and source (0 = direct)")
	replicas := fs.Int("replicas", -1, "redundant relays fronting each hub tier and the source network")
	churn := fs.Bool("churn", false, "kill and restart relays of the origin's next tier during the run")
	churnInterval := fs.Duration("churn-interval", 0, "period of the kill/restart cycle")
	seed := fs.Int64("seed", 0, "RNG seed for the schedule (0 keeps the preset's)")
	spans := fs.Bool("spans", false, "trace every query and invoke and print each op kind's stage table and E1–E3 split")
	out := fs.String("out", loadgen.DefaultOutput, "report output path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, known := loadgen.Presets[*preset]
	if !known {
		return fmt.Errorf("unknown preset %q (have: %s)", *preset, strings.Join(loadgen.PresetNames(), ", "))
	}
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			return fmt.Errorf("read -config: %w", err)
		}
		if err := json.Unmarshal(data, &cfg); err != nil {
			return fmt.Errorf("parse -config %s: %w", *configPath, err)
		}
	}
	// Only flags the user actually set override the layers below.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "clients":
			cfg.Clients = *clients
		case "rate":
			cfg.Rate = *rate
		case "duration":
			cfg.Duration = *duration
		case "keys":
			cfg.Keys = *keys
		case "zipf":
			cfg.ZipfS = *zipf
		case "arrival":
			cfg.Arrival = *arrival
		case "query-pct":
			cfg.Mix.QueryPct = *queryPct
		case "warm-pct":
			cfg.Mix.WarmQueryPct = *warmPct
		case "invoke-pct":
			cfg.Mix.InvokePct = *invokePct
		case "subscribe-pct":
			cfg.Mix.SubscribePct = *subscribePct
		case "hub-hops":
			cfg.HubHops = *hubHops
		case "replicas":
			cfg.Replicas = *replicas
		case "churn":
			cfg.Churn = *churn
		case "churn-interval":
			cfg.ChurnInterval = *churnInterval
		case "seed":
			cfg.Seed = *seed
		case "spans":
			cfg.Spans = *spans
		}
	})
	cfg.Output = *out
	if err := cfg.Validate(); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "loadgen: building TCP deployment (%d hub tiers, %d relays per tier), seeding %d keys...\n",
		cfg.HubHops, max(cfg.Replicas, 1), cfg.Keys)
	start := time.Now()
	report, err := loadgen.RunLive(ctx, &cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loadgen: run complete in %s\n\n", time.Since(start).Round(time.Millisecond))

	fmt.Print(report.Table())
	if err := report.WriteFile(cfg.Output); err != nil {
		return err
	}
	path := cfg.Output
	if path == "" {
		path = loadgen.DefaultOutput
	}
	fmt.Printf("\nreport written to %s\n", path)

	// Exit status carries the verdict: protocol errors and exactly-once
	// violations fail the run even though it completed.
	if n := report.ProtocolErrors(); n > 0 {
		return fmt.Errorf("%d protocol errors (see %s)", n, path)
	}
	if report.Audit != nil && !report.Audit.Clean() {
		return fmt.Errorf("exactly-once audit failed: %+v", *report.Audit)
	}
	return nil
}
