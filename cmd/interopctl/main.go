// Command interopctl operates against the interop fabric from the
// destination application's seat.
//
// The query subcommand (also the default) issues a trusted cross-network
// query against a running relayd (Fig. 2 steps 1-9): it loads the client
// kit written by relayd, sends the query over TCP through relay discovery,
// decrypts the response, verifies the proof against the recorded source
// configuration and verification policy, and prints the result with an
// attestation summary.
//
// The loadgen subcommand builds a self-contained multi-relay TCP
// deployment and measures it under sustained open-loop load — latency
// percentiles, throughput, error budgets, relay counters and an
// exactly-once audit — writing BENCH_loadgen.json. Both networks commit
// through the one group-commit orderer and self-selecting committer, and
// every relay batches attestation only when proof builds overlap, so
// loadgen has no commit or batching flags; a -config file's pipelined,
// batch_size, committer_workers and attest_batch_* fields are ignored.
//
// Usage:
//
//	interopctl -dir ./deploy -po po-1001
//	interopctl query -dir ./deploy -po po-1001 -timeout 5s
//	interopctl query -dir ./deploy -ping
//	interopctl loadgen -preset steady-query
//	interopctl loadgen -preset churn -duration 30s -rate 200
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/deploy"
	"repro/internal/endorsement"
	"repro/internal/msp"
	"repro/internal/proof"
	"repro/internal/relay"
	"repro/internal/wire"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "loadgen":
		err = runLoadgen(args[1:])
	case len(args) > 0 && args[0] == "query":
		err = runQuery(args[1:])
	default:
		// Bare flags keep meaning "query" so existing invocations survive.
		err = runQuery(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "interopctl:", err)
		os.Exit(1)
	}
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	dir := fs.String("dir", "./deploy", "deployment directory written by relayd")
	po := fs.String("po", "po-1001", "purchase order reference to fetch the bill of lading for")
	ping := fs.Bool("ping", false, "only probe the source relay for liveness")
	timeout := fs.Duration("timeout", 30*time.Second, "deadline for the whole operation; propagated to the source relay")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	kit, err := deploy.LoadKit(*dir)
	if err != nil {
		return err
	}
	registry := relay.NewJournalRegistry(deploy.JournalPath(*dir))
	transport := &relay.TCPTransport{DialTimeout: 5 * time.Second, IOTimeout: 30 * time.Second}
	defer transport.Close()
	local := relay.New(kit.RequestingNetwork, registry, transport)

	addrs, err := registry.Resolve(kit.SourceNetwork)
	if err != nil {
		return fmt.Errorf("%w: %s", err, kit.SourceNetwork)
	}
	if *ping {
		probe(ctx, local, addrs, *timeout, func(addr string, rtt time.Duration, err error) {
			if err != nil {
				fmt.Printf("%-24s DOWN  (%v)\n", addr, err)
				return
			}
			fmt.Printf("%-24s UP    (%s)\n", addr, rtt.Round(time.Microsecond))
		})
		return nil
	}
	// A one-shot process starts with no relay health, so the query would
	// try the addresses in registry order and wait out its whole budget on
	// a hung relay listed first. Probing them first, within a quarter of
	// the budget, ranks a live relay ahead of a hung one.
	if len(addrs) > 1 {
		probe(ctx, local, addrs, *timeout/4, func(string, time.Duration, error) {})
	}

	key, err := kit.Key()
	if err != nil {
		return err
	}
	nonce, err := cryptoutil.NewNonce()
	if err != nil {
		return err
	}
	q := &wire.Query{
		RequestingNetwork: kit.RequestingNetwork,
		TargetNetwork:     kit.SourceNetwork,
		Ledger:            kit.Ledger,
		Contract:          kit.Contract,
		Function:          kit.Function,
		Args:              [][]byte{[]byte(*po)},
		PolicyExpr:        kit.VerificationPolicy,
		RequesterCertPEM:  kit.CertPEM,
		RequesterOrg:      kit.Org,
		Nonce:             nonce,
		PolicyDigest:      proof.PolicyDigest(kit.VerificationPolicy),
	}
	start := time.Now()
	resp, err := local.Query(ctx, q)
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	if resp.Error != "" {
		return fmt.Errorf("remote error: %s", resp.Error)
	}
	rtt := time.Since(start)

	bundle, err := proof.OpenResponse(cryptoutil.NewRecipient(key), q, resp)
	if err != nil {
		return fmt.Errorf("open response: %w", err)
	}

	// Verify the proof against the kit's recorded source configuration.
	cfgBytes, err := kit.SourceConfigBytes()
	if err != nil {
		return err
	}
	verifier, err := msp.VerifierForConfig(cfgBytes)
	if err != nil {
		return err
	}
	vp, err := endorsement.Parse(kit.VerificationPolicy)
	if err != nil {
		return err
	}
	if err := proof.Verify(bundle, verifier, vp, proof.QueryDigestOf(q), proof.PolicyDigest(kit.VerificationPolicy)); err != nil {
		return fmt.Errorf("proof verification: %w", err)
	}

	fmt.Printf("query      %s.%s(%s) on %s\n", kit.Contract, kit.Function, *po, kit.SourceNetwork)
	fmt.Printf("rtt        %s\n", rtt.Round(time.Microsecond))
	fmt.Printf("policy     %s  [SATISFIED]\n", kit.VerificationPolicy)
	for i := range bundle.Elements {
		md, err := wire.UnmarshalMetadata(bundle.Elements[i].Metadata)
		if err != nil {
			return err
		}
		fmt.Printf("attestor   %s (%s) — signature verified\n", md.PeerName, md.OrgID)
	}
	fmt.Printf("result     %s\n", bundle.Result)
	return nil
}

// probe pings each address in turn within a fair slice of budget, so one
// hung relay cannot starve the probes of the addresses after it and the
// total stays within budget, and hands each outcome to report. Every probe
// is a sample in the relay's health tracker, which orders the addresses of
// the relay's later requests.
func probe(ctx context.Context, local *relay.Relay, addrs []string, budget time.Duration, report func(addr string, rtt time.Duration, err error)) {
	perProbe := budget / time.Duration(len(addrs))
	if perProbe <= 0 {
		perProbe = budget
	}
	for _, addr := range addrs {
		pingCtx, cancel := context.WithTimeout(ctx, perProbe)
		start := time.Now()
		err := local.Ping(pingCtx, addr)
		cancel()
		report(addr, time.Since(start), err)
	}
}
