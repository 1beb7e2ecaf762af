package relay

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// The file-based registry tests. The paper keeps relay discovery in "a
// local file-based registry plugged into the SWT Relay" (§4.3); here that
// is the lease journal. Unlike journal_test.go, these drive each step
// through its own instance — one per relayd or netadmin process sharing a
// deploy dir — so whatever they assert was read back from the files, never
// from the writer's in-memory view, and they read it back once more after
// a compaction has rewritten those files.

// fileRegistry opens a new instance over dir's registry, as a new process
// would.
func fileRegistry(dir string) *JournalRegistry {
	return NewJournalRegistry(filepath.Join(dir, "registry.jsonl"))
}

// compactAndReopen rolls dir's registry into a new generation and returns
// an instance that has never seen the old one.
func compactAndReopen(t *testing.T, dir string) *JournalRegistry {
	t.Helper()
	if err := fileRegistry(dir).Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	return fileRegistry(dir)
}

func TestFileRegistryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, err := fileRegistry(dir).Resolve("tradelens"); !errors.Is(err, ErrUnknownNetwork) {
		t.Fatalf("empty registry: %v", err)
	}
	// Two processes each register one address.
	if err := fileRegistry(dir).Register("tradelens", "127.0.0.1:9080"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := fileRegistry(dir).Register("tradelens", "127.0.0.1:9081"); err != nil {
		t.Fatalf("Register second: %v", err)
	}
	check := func(stage string, reg *JournalRegistry) {
		t.Helper()
		addrs, err := reg.Resolve("tradelens")
		if err != nil || len(addrs) != 2 || addrs[0] != "127.0.0.1:9080" || addrs[1] != "127.0.0.1:9081" {
			t.Fatalf("%s Resolve = %v, %v, want both addresses in registration order", stage, addrs, err)
		}
		nets, err := reg.Networks()
		if err != nil || len(nets) != 1 {
			t.Fatalf("%s Networks = %v, %v", stage, nets, err)
		}
	}
	check("reader", fileRegistry(dir))
	check("after compaction", compactAndReopen(t, dir))
}

// TestFileRegistryLeaseExpiryAndPrune: a lease renewed by one process keeps
// resolving for another; left unrenewed it lapses (the laxer Entries view
// still shows it) until a third process's Prune removes it for everyone.
func TestFileRegistryLeaseExpiryAndPrune(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	open := func() *JournalRegistry {
		reg := fileRegistry(dir)
		reg.now = clk.Now
		return reg
	}

	if err := open().RegisterLease("tradelens", "leased:1", 30*time.Second); err != nil {
		t.Fatalf("RegisterLease: %v", err)
	}
	if err := open().Register("tradelens", "permanent:1"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if addrs, err := open().Resolve("tradelens"); err != nil || len(addrs) != 2 {
		t.Fatalf("Resolve = %v, %v", addrs, err)
	}

	// Renewal from another process pushes the expiry out.
	clk.Advance(20 * time.Second)
	if err := open().RegisterLease("tradelens", "leased:1", 30*time.Second); err != nil {
		t.Fatalf("renew: %v", err)
	}
	clk.Advance(20 * time.Second)
	if addrs, _ := open().Resolve("tradelens"); len(addrs) != 2 {
		t.Fatalf("renewed lease lapsed early: %v", addrs)
	}

	// Left unrenewed, the lease lapses: only the permanent entry resolves.
	clk.Advance(time.Minute)
	addrs, err := open().Resolve("tradelens")
	if err != nil || len(addrs) != 1 || addrs[0] != "permanent:1" {
		t.Fatalf("after expiry Resolve = %v, %v, want just the permanent entry", addrs, err)
	}
	if entries, err := open().Entries(); err != nil || len(entries["tradelens"]) != 2 {
		t.Fatalf("Entries = %+v, %v, want the lapsed entry still listed", entries, err)
	}

	if pruned, err := open().Prune(); err != nil || pruned != 1 {
		t.Fatalf("Prune = %d, %v, want 1", pruned, err)
	}
	if entries, _ := open().Entries(); len(entries["tradelens"]) != 1 {
		t.Fatalf("after prune Entries = %+v", entries)
	}
	reg := compactAndReopen(t, dir)
	reg.now = clk.Now
	if entries, err := reg.Entries(); err != nil || len(entries["tradelens"]) != 1 || entries["tradelens"][0].Addr != "permanent:1" {
		t.Fatalf("post-compaction Entries = %+v, %v, want just permanent:1", entries, err)
	}
}

// TestFileRegistryDeregister removes one address and drops the network once
// its last entry is gone, as every other process sees it.
func TestFileRegistryDeregister(t *testing.T) {
	dir := t.TempDir()
	if err := fileRegistry(dir).Register("a", "addr1", "addr2"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := fileRegistry(dir).Deregister("a", "addr1"); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	addrs, err := fileRegistry(dir).Resolve("a")
	if err != nil || len(addrs) != 1 || addrs[0] != "addr2" {
		t.Fatalf("Resolve = %v, %v", addrs, err)
	}
	if err := fileRegistry(dir).Deregister("a", "missing"); err != nil {
		t.Fatalf("Deregister of an absent address: %v", err)
	}
	if err := fileRegistry(dir).Deregister("a", "addr2"); err != nil {
		t.Fatalf("Deregister last: %v", err)
	}
	check := func(stage string, reg *JournalRegistry) {
		t.Helper()
		if nets, err := reg.Networks(); err != nil || len(nets) != 0 {
			t.Fatalf("%s Networks after last deregister = %v, %v", stage, nets, err)
		}
		if _, err := reg.Resolve("a"); !errors.Is(err, ErrUnknownNetwork) {
			t.Fatalf("%s Resolve after last deregister: %v", stage, err)
		}
	}
	check("reader", fileRegistry(dir))
	check("after compaction", compactAndReopen(t, dir))
}

// TestFileRegistryConcurrentRegisterResolve hammers one registry with
// concurrent writers and a reader, each its own instance like relayds
// sharing a deploy dir; under -race this doubles as the locking test, and
// a torn append surfaces as a reader missing the network.
func TestFileRegistryConcurrentRegisterResolve(t *testing.T) {
	dir := t.TempDir()
	writer := fileRegistry(dir)
	reader := fileRegistry(dir)
	if err := writer.Register("net-0", "addr-0"); err != nil {
		t.Fatalf("seed Register: %v", err)
	}

	const iterations = 100
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iterations; i++ {
			if err := writer.RegisterLease("net-0", fmt.Sprintf("addr-%d", i%7), time.Minute); err != nil {
				report(fmt.Errorf("RegisterLease: %w", err))
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		other := fileRegistry(dir)
		for i := 0; i < iterations; i++ {
			if err := other.Register("net-1", fmt.Sprintf("addr-%d", i%5)); err != nil {
				report(fmt.Errorf("Register: %w", err))
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iterations; i++ {
			if _, err := reader.Resolve("net-0"); err != nil {
				report(fmt.Errorf("Resolve observed a torn or missing registry: %w", err))
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Dedup held under concurrency: one entry per distinct address.
	final := fileRegistry(dir)
	for net, want := range map[string]int{"net-0": 7, "net-1": 5} {
		addrs, err := final.Resolve(net)
		if err != nil {
			t.Fatalf("final Resolve(%s): %v", net, err)
		}
		if len(addrs) != want {
			t.Fatalf("%s: %d entries for %d distinct addresses: %v", net, len(addrs), want, addrs)
		}
	}
}
