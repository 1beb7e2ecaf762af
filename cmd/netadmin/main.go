// Command netadmin inspects and maintains a deployment directory. The
// default status command lists the networks registered for discovery,
// probes every relay address for liveness, and summarizes the client kit's
// interop configuration (requesting identity, source network organizations,
// verification policy). The registry subcommands inspect and maintain
// lease-based discovery membership.
//
// Usage:
//
//	netadmin -dir ./deploy                  # status (default)
//	netadmin -dir ./deploy registry list    # every entry with its lease state
//	netadmin -dir ./deploy registry prune   # drop entries whose lease lapsed
//	netadmin -dir ./deploy registry compact # roll the journal into a fresh snapshot
//	netadmin -dir ./deploy route list       # the relay's static multi-hop routes
//	netadmin proofs show bundle.bin         # dump a persisted proof bundle
//
// The registry subcommands operate on the deployment's append-only lease
// journal (registry.jsonl plus its generation and pointer files). Appends
// already compact the journal once it outgrows its size threshold;
// `registry compact` forces a rollover.
//
// proofs show decodes a proof artifact file in either persisted form: the
// sealed bundle a committed interop transaction carries
// (ledger.Transaction.ProofBundle — the artifact ReplayInvoke re-serves
// verbatim) or the plaintext bundle a client embeds in a destination
// transaction (core.RemoteData.BundleBytes).
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/deploy"
	"repro/internal/proof"
	"repro/internal/relay"
	"repro/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "netadmin:", err)
		os.Exit(1)
	}
}

func run() error {
	dir := flag.String("dir", "./deploy", "deployment directory to inspect")
	probeTimeout := flag.Duration("probe-timeout", 3*time.Second, "per-address liveness probe deadline")
	flag.Parse()

	registry := relay.NewJournalRegistry(deploy.JournalPath(*dir))
	switch args := flag.Args(); {
	case len(args) == 0 || (len(args) == 1 && args[0] == "status"):
		return status(*dir, registry, *probeTimeout)
	case len(args) == 2 && args[0] == "registry" && args[1] == "list":
		return registryList(*dir, registry)
	case len(args) == 2 && args[0] == "registry" && args[1] == "prune":
		return registryPrune(registry)
	case len(args) == 2 && args[0] == "registry" && args[1] == "compact":
		return registryCompact(registry)
	case len(args) == 2 && args[0] == "route" && args[1] == "list":
		return routeList(*dir)
	case len(args) == 3 && args[0] == "proofs" && args[1] == "show":
		return proofsShow(args[2])
	default:
		return fmt.Errorf("unknown command %q (expected: status, registry list, registry prune, registry compact, route list, proofs show <file>)", args)
	}
}

// status is the default inspection: resolve and probe every live relay
// address, then summarize the client kit.
func status(dir string, registry *relay.JournalRegistry, probeTimeout time.Duration) error {
	networks, err := registry.Networks()
	if err != nil {
		return err
	}
	sort.Strings(networks)

	transport := &relay.TCPTransport{DialTimeout: 2 * time.Second, IOTimeout: 5 * time.Second}
	defer transport.Close()
	probe := relay.New("netadmin", registry, transport)

	fmt.Printf("registry: %s\n", deploy.JournalPath(dir))
	if len(networks) == 0 {
		fmt.Println("  (no networks registered)")
	}
	for _, network := range networks {
		addrs, err := registry.Resolve(network)
		if err != nil {
			// Every entry's lease may have lapsed; the network still shows
			// under `registry list` until pruned.
			fmt.Printf("network %q: no live relay entries (%v)\n", network, err)
			continue
		}
		fmt.Printf("network %q: %d relay(s)\n", network, len(addrs))
		for _, addr := range addrs {
			start := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			err := probe.Ping(ctx, addr)
			cancel()
			if err != nil {
				fmt.Printf("  %-24s DOWN  (%v)\n", addr, err)
				continue
			}
			fmt.Printf("  %-24s UP    (%s)\n", addr, time.Since(start).Round(time.Microsecond))
		}
	}

	kit, err := deploy.LoadKit(dir)
	if err != nil {
		fmt.Printf("client kit: none (%v)\n", err)
		return nil
	}
	fmt.Printf("client kit: %s@%s of %s\n", kit.Name, kit.Org, kit.RequestingNetwork)
	fmt.Printf("  provisioned for   %s.%s on %s\n", kit.Contract, kit.Function, kit.SourceNetwork)
	fmt.Printf("  verification      %s\n", kit.VerificationPolicy)
	cfg, err := kit.SourceConfig()
	if err != nil {
		return err
	}
	fmt.Printf("  source platform   %s with %d org(s):\n", cfg.Platform, len(cfg.Orgs))
	for _, org := range cfg.Orgs {
		fmt.Printf("    %-20s %d peer(s), root cert %d bytes\n", org.OrgID, len(org.PeerNames), len(org.RootCertPEM))
	}
	return nil
}

// routeList prints the static multi-hop route table relayd recorded in the
// deployment directory: each target network with its ordered via networks,
// plus the hop TTL stamped on routed envelopes.
func routeList(dir string) error {
	cfg, err := deploy.LoadRoutes(dir)
	if err != nil {
		if os.IsNotExist(errors.Unwrap(err)) {
			fmt.Printf("routes: none configured (%s not present)\n", deploy.RoutesPath(dir))
			return nil
		}
		return err
	}
	fmt.Printf("routes: %s\n", deploy.RoutesPath(dir))
	ttl := cfg.MaxHops
	if ttl == 0 {
		ttl = relay.DefaultMaxHops
	}
	fmt.Printf("  hop TTL: %d transport leg(s)\n", ttl)
	if len(cfg.Routes) == 0 {
		fmt.Println("  (forwarding enabled with an empty table: only directly resolvable targets are forwarded)")
		return nil
	}
	sort.Slice(cfg.Routes, func(i, j int) bool { return cfg.Routes[i].Target < cfg.Routes[j].Target })
	for _, r := range cfg.Routes {
		fmt.Printf("  %-24s via %s\n", r.Target, strings.Join(r.Vias, ", "))
	}
	return nil
}

// registryList prints every entry, expired or not, with its lease state.
func registryList(dir string, registry *relay.JournalRegistry) error {
	entries, err := registry.Entries()
	if err != nil {
		return err
	}
	fmt.Printf("registry: %s\n", deploy.JournalPath(dir))
	if len(entries) == 0 {
		fmt.Println("  (no networks registered)")
		return nil
	}
	networks := make([]string, 0, len(entries))
	for id := range entries {
		networks = append(networks, id)
	}
	sort.Strings(networks)
	now := time.Now()
	for _, network := range networks {
		fmt.Printf("network %q:\n", network)
		for _, entry := range entries[network] {
			switch {
			case entry.ExpiresUnixNano == 0:
				fmt.Printf("  %-24s permanent\n", entry.Addr)
			case time.Unix(0, entry.ExpiresUnixNano).After(now):
				remaining := time.Unix(0, entry.ExpiresUnixNano).Sub(now).Round(time.Second)
				fmt.Printf("  %-24s lease expires in %s\n", entry.Addr, remaining)
			default:
				expired := now.Sub(time.Unix(0, entry.ExpiresUnixNano)).Round(time.Second)
				fmt.Printf("  %-24s EXPIRED %s ago (prune to remove)\n", entry.Addr, expired)
			}
		}
	}
	return nil
}

// proofsShow decodes and prints a persisted proof artifact: first as the
// sealed form a committed transaction carries, falling back to the
// plaintext bundle form clients embed in destination transactions.
func proofsShow(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if sealed, err := proof.UnmarshalSealed(data); err == nil && len(sealed.Response) > 0 {
		return showSealed(sealed)
	}
	bundle, err := proof.UnmarshalBundle(data)
	if err != nil {
		return fmt.Errorf("not a sealed proof or a proof bundle: %w", err)
	}
	return showBundle(bundle)
}

func showSealed(s *proof.Sealed) error {
	fmt.Println("sealed proof (as persisted with the committed transaction)")
	fmt.Printf("  query digest    %s\n", hex.EncodeToString(s.QueryDigest))
	fmt.Printf("  policy digest   %s\n", hex.EncodeToString(s.PolicyDigest))
	fmt.Printf("  built           %s\n", time.Unix(0, int64(s.UnixNano)).UTC().Format(time.RFC3339Nano))
	fmt.Printf("  attestors       %d\n", len(s.Attestors))
	for _, a := range s.Attestors {
		fmt.Printf("    %s\n", a)
	}
	resp, err := s.OpenWire()
	if err != nil {
		return fmt.Errorf("stored response: %w", err)
	}
	fmt.Printf("  response        %d attestation(s), %d result ciphertext bytes\n",
		len(resp.Attestations), len(resp.EncryptedResult))
	for i := range resp.Attestations {
		att := &resp.Attestations[i]
		fmt.Printf("    [%d] %s/%s  sig %d bytes, encrypted metadata %d bytes\n",
			i, att.OrgID, att.PeerName, len(att.Signature), len(att.EncryptedMetadata))
	}
	return nil
}

func showBundle(b *proof.Bundle) error {
	fmt.Println("proof bundle (client-side plaintext form)")
	fmt.Printf("  source network  %s\n", b.SourceNetwork)
	fmt.Printf("  query digest    %s\n", hex.EncodeToString(b.QueryDigest))
	fmt.Printf("  policy digest   %s\n", hex.EncodeToString(b.PolicyDigest))
	if b.UnixNano != 0 {
		fmt.Printf("  built           %s\n", time.Unix(0, int64(b.UnixNano)).UTC().Format(time.RFC3339Nano))
	}
	fmt.Printf("  nonce           %s\n", hex.EncodeToString(b.Nonce))
	fmt.Printf("  result          %d bytes\n", len(b.Result))
	fmt.Printf("  attestations    %d\n", len(b.Elements))
	for i := range b.Elements {
		el := &b.Elements[i]
		md, err := wire.UnmarshalMetadata(el.Metadata)
		if err != nil {
			fmt.Printf("    [%d] (metadata undecodable: %v)\n", i, err)
			continue
		}
		fmt.Printf("    [%d] %s/%s of %s at %s\n", i, md.OrgID, md.PeerName, md.NetworkID,
			time.Unix(0, int64(md.UnixNano)).UTC().Format(time.RFC3339Nano))
	}
	return nil
}

// registryCompact rolls the registry journal into a fresh generation
// snapshot.
func registryCompact(registry *relay.JournalRegistry) error {
	if err := registry.Compact(); err != nil {
		return err
	}
	entries, err := registry.Entries()
	if err != nil {
		return err
	}
	total := 0
	for _, list := range entries {
		total += len(list)
	}
	fmt.Printf("compacted journal to %d entr%s across %d network(s)\n", total, pluralYIes(total), len(entries))
	return nil
}

// registryPrune drops entries whose lease has lapsed.
func registryPrune(registry *relay.JournalRegistry) error {
	pruned, err := registry.Prune()
	if err != nil {
		return err
	}
	fmt.Printf("pruned %d expired entr%s\n", pruned, pluralYIes(pruned))
	return nil
}

func pluralYIes(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}
