package relay

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func containsAddr(addrs []string, want string) bool {
	for _, a := range addrs {
		if a == want {
			return true
		}
	}
	return false
}

func journalAt(t *testing.T, dir string, opts ...JournalOption) *JournalRegistry {
	t.Helper()
	return NewJournalRegistry(filepath.Join(dir, "registry.jsonl"), opts...)
}

func TestJournalRegistryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := journalAt(t, dir)

	if _, err := reg.Resolve("tradelens"); !errors.Is(err, ErrUnknownNetwork) {
		t.Fatalf("empty journal: %v", err)
	}
	if err := reg.Register("tradelens", "127.0.0.1:9080"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := reg.Register("tradelens", "127.0.0.1:9081"); err != nil {
		t.Fatalf("Register second: %v", err)
	}
	addrs, err := reg.Resolve("tradelens")
	if err != nil || len(addrs) != 2 || addrs[0] != "127.0.0.1:9080" {
		t.Fatalf("Resolve = %v, %v", addrs, err)
	}

	// A fresh instance over the same journal materializes the same view.
	reg2 := journalAt(t, dir)
	addrs, err = reg2.Resolve("tradelens")
	if err != nil || len(addrs) != 2 {
		t.Fatalf("rematerialized Resolve = %v, %v", addrs, err)
	}
	nets, err := reg2.Networks()
	if err != nil || len(nets) != 1 {
		t.Fatalf("Networks = %v, %v", nets, err)
	}
}

func TestJournalRegistryRenewDeregisterLastRecordWins(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	reg := journalAt(t, dir)
	reg.now = clk.Now

	if err := reg.RegisterLease("net", "a:1", 30*time.Second); err != nil {
		t.Fatalf("RegisterLease: %v", err)
	}
	// Renewal refreshes in place — one entry, not an appended duplicate.
	clk.Advance(20 * time.Second)
	if err := reg.RegisterLease("net", "a:1", 30*time.Second); err != nil {
		t.Fatalf("renew: %v", err)
	}
	clk.Advance(20 * time.Second)
	if addrs, err := reg.Resolve("net"); err != nil || len(addrs) != 1 {
		t.Fatalf("renewed lease lapsed early: %v, %v", addrs, err)
	}
	entries, err := reg.Entries()
	if err != nil || len(entries["net"]) != 1 {
		t.Fatalf("Entries = %+v, %v, want a single deduplicated entry", entries, err)
	}

	if err := reg.Deregister("net", "a:1"); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if _, err := reg.Resolve("net"); !errors.Is(err, ErrUnknownNetwork) {
		t.Fatalf("after deregister Resolve err = %v", err)
	}
	nets, err := reg.Networks()
	if err != nil || len(nets) != 0 {
		t.Fatalf("Networks after last deregister = %v, %v", nets, err)
	}
	// Deregistering an absent address appends a harmless no-op record.
	if err := reg.Deregister("net", "missing"); err != nil {
		t.Fatalf("Deregister absent: %v", err)
	}
}

func TestJournalRegistryLeaseExpiryAndPrune(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	reg := journalAt(t, dir)
	reg.now = clk.Now

	if err := reg.RegisterLease("net", "leased:1", 30*time.Second); err != nil {
		t.Fatalf("RegisterLease: %v", err)
	}
	if err := reg.Register("net", "permanent:1"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	clk.Advance(time.Minute)
	addrs, err := reg.Resolve("net")
	if err != nil || len(addrs) != 1 || addrs[0] != "permanent:1" {
		t.Fatalf("after expiry Resolve = %v, %v, want just the permanent entry", addrs, err)
	}
	// The laxer Entries view still lists the lapsed entry until pruned.
	entries, err := reg.Entries()
	if err != nil || len(entries["net"]) != 2 {
		t.Fatalf("Entries = %+v, %v, want the lapsed entry still listed", entries, err)
	}
	pruned, err := reg.Prune()
	if err != nil || pruned != 1 {
		t.Fatalf("Prune = %d, %v, want 1", pruned, err)
	}
	entries, _ = reg.Entries()
	if len(entries["net"]) != 1 || entries["net"][0].Addr != "permanent:1" {
		t.Fatalf("after prune Entries = %+v", entries)
	}
	// Prune with nothing lapsed appends nothing.
	if pruned, err := reg.Prune(); err != nil || pruned != 0 {
		t.Fatalf("second Prune = %d, %v", pruned, err)
	}
}

// TestJournalLeaseSkewTakesEarlierInterpretation is the lease-boundary
// contract: a lease record carries only its absolute expiry, stamped on
// the host clock the journal's writers and readers share (flock on one
// deployment directory), and the entry stops resolving once that clock
// passes it — however long the TTL a fresh read of the record would
// otherwise grant.
func TestJournalLeaseSkewTakesEarlierInterpretation(t *testing.T) {
	t.Run("slow writer clock bounded by absolute expiry", func(t *testing.T) {
		dir := t.TempDir()
		writerClk := newFakeClock() // writer's clock runs an hour slow:
		// absolute expiry lands ~now, while the TTL read fresh would grant
		// a full extra hour.
		writer := journalAt(t, dir)
		writer.now = writerClk.Now
		if err := writer.RegisterLease("net", "skewed:1", time.Hour); err != nil {
			t.Fatalf("RegisterLease: %v", err)
		}

		readerClk := newFakeClock()
		readerClk.Advance(time.Hour + time.Second) // true time: just past the absolute expiry
		reader := journalAt(t, dir)
		reader.now = readerClk.Now
		if _, err := reader.Resolve("net"); !errors.Is(err, ErrUnknownNetwork) {
			t.Fatalf("lease resolved past its absolute expiry: %v", err)
		}
	})
}

// TestJournalPruneCompactAgreeWithReader: the maintenance operations use
// the same expiry as Resolve, so what stops resolving is exactly what
// Prune removes, and Compact never resurrects it.
func TestJournalPruneCompactAgreeWithReader(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock() // the one host clock writer and reader share
	writer := journalAt(t, dir)
	writer.now = clk.Now
	const ttl = 30 * time.Second
	if err := writer.RegisterLease("net", "leased:1", ttl); err != nil {
		t.Fatalf("RegisterLease: %v", err)
	}
	if err := writer.Register("net", "permanent:1"); err != nil {
		t.Fatalf("Register: %v", err)
	}

	reader := journalAt(t, dir)
	reader.now = clk.Now
	// Materialize now, then cross the lease's expiry.
	if addrs, err := reader.Resolve("net"); err != nil || len(addrs) != 2 {
		t.Fatalf("initial Resolve = %v, %v", addrs, err)
	}
	clk.Advance(ttl + time.Second)
	addrs, err := reader.Resolve("net")
	if err != nil || len(addrs) != 1 || addrs[0] != "permanent:1" {
		t.Fatalf("post-expiry Resolve = %v, %v, want just permanent:1", addrs, err)
	}
	// Prune agrees: exactly the entry the reader stopped resolving.
	pruned, err := reader.Prune()
	if err != nil || pruned != 1 {
		t.Fatalf("Prune = %d, %v, want 1 (the entry that stopped resolving)", pruned, err)
	}
	// Compact agrees: the surviving view is unchanged across the rollover.
	if err := reader.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	addrs, err = reader.Resolve("net")
	if err != nil || len(addrs) != 1 || addrs[0] != "permanent:1" {
		t.Fatalf("post-compaction Resolve = %v, %v", addrs, err)
	}
	entries, err := reader.Entries()
	if err != nil || len(entries["net"]) != 1 {
		t.Fatalf("post-compaction Entries = %+v, %v", entries, err)
	}
}

// TestJournalRegistryRestartIdempotent models relayd restarting against
// the same deployment dir: each run is a fresh instance announcing the same
// address, and the view must hold exactly one entry; permanent Register
// dedupes the same way.
func TestJournalRegistryRestartIdempotent(t *testing.T) {
	dir := t.TempDir()
	for restart := 0; restart < 3; restart++ {
		if err := journalAt(t, dir).RegisterLease("tradelens", "127.0.0.1:9080", time.Minute); err != nil {
			t.Fatalf("restart %d RegisterLease: %v", restart, err)
		}
	}
	entries, err := journalAt(t, dir).Entries()
	if err != nil {
		t.Fatalf("Entries: %v", err)
	}
	if got := entries["tradelens"]; len(got) != 1 || got[0].Addr != "127.0.0.1:9080" {
		t.Fatalf("after three restarts entries = %+v, want exactly one", got)
	}
	reg := journalAt(t, dir)
	if err := reg.Register("tradelens", "127.0.0.1:9080", "127.0.0.1:9081"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := reg.Register("tradelens", "127.0.0.1:9081"); err != nil {
		t.Fatalf("Register again: %v", err)
	}
	addrs, err := reg.Resolve("tradelens")
	if err != nil || len(addrs) != 2 {
		t.Fatalf("Resolve = %v, %v, want the two deduplicated addresses", addrs, err)
	}
}

// TestJournalRegistryLiveEdits: an operator who replaces the journal by
// hand (here with a shorter file) is observed by a running instance, which
// rebuilds its view instead of tailing from a stale offset.
func TestJournalRegistryLiveEdits(t *testing.T) {
	dir := t.TempDir()
	reg := journalAt(t, dir)
	if err := reg.Register("a", "addr-1", "addr-2"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if addrs, err := reg.Resolve("a"); err != nil || len(addrs) != 2 {
		t.Fatalf("Resolve = %v, %v", addrs, err)
	}
	if err := os.WriteFile(reg.genPath(0), []byte(`{"op":"lease","net":"a","addr":"addr9"}`+"\n"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	addrs, err := reg.Resolve("a")
	if err != nil || len(addrs) != 1 || addrs[0] != "addr9" {
		t.Fatalf("live edit not observed: %v, %v", addrs, err)
	}
}

// TestJournalRegistryCorruptPointer: undecodable journal lines are
// tolerated (TestJournalGarbageTolerance), but a generation pointer that
// does not parse is an error — guessing a generation could serve a
// superseded view.
func TestJournalRegistryCorruptPointer(t *testing.T) {
	dir := t.TempDir()
	reg := journalAt(t, dir)
	if err := reg.Register("a", "addr-1"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := os.WriteFile(reg.pointerPath(), []byte("{not a generation"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := journalAt(t, dir).Resolve("a"); err == nil {
		t.Fatal("corrupt generation pointer accepted")
	}
	if err := reg.Register("a", "addr-2"); err == nil {
		t.Fatal("append under a corrupt generation pointer accepted")
	}
}

// TestJournalRegistryCompactionBoundsFile: under heartbeat churn the
// journal would grow without bound; the append that carries it past the
// threshold compacts in-band, so between appends the current generation
// never exceeds the threshold, and the view is identical across every
// rollover — including for a second instance that was tailing generation 0
// before the first one.
func TestJournalRegistryCompactionBoundsFile(t *testing.T) {
	dir := t.TempDir()
	const threshold = 1024
	reg := journalAt(t, dir, WithCompactBytes(threshold))
	tailer := journalAt(t, dir)

	const addrs = 5
	renewAll := func(round int) {
		t.Helper()
		for i := 0; i < addrs; i++ {
			if err := reg.RegisterLease("net", fmt.Sprintf("relay-%d:9080", i), time.Hour); err != nil {
				t.Fatalf("round %d RegisterLease: %v", round, err)
			}
		}
	}
	renewAll(0)
	if gen, err := reg.readGen(); err != nil || gen != 0 {
		t.Fatalf("generation after one round = %d, %v, want 0 (under the threshold)", gen, err)
	}
	// The tailer now holds an offset into generation 0.
	if got, err := tailer.Resolve("net"); err != nil || len(got) != addrs {
		t.Fatalf("tailer Resolve = %v, %v", got, err)
	}
	var gen uint64
	for round := 1; round < 200; round++ {
		renewAll(round)
		var err error
		if gen, err = reg.readGen(); err != nil {
			t.Fatalf("readGen: %v", err)
		}
		st, err := os.Stat(reg.genPath(gen))
		if err != nil {
			t.Fatalf("stat generation %d: %v", gen, err)
		}
		if st.Size() > threshold {
			t.Fatalf("round %d: generation %d is %d bytes, past the %d-byte threshold", round, gen, st.Size(), threshold)
		}
	}
	if gen < 2 {
		t.Fatalf("generation after 1000 renewals = %d, want several in-band rollovers", gen)
	}
	// The grace window keeps exactly the most-recent superseded generation.
	if _, err := os.Stat(reg.genPath(gen - 1)); err != nil {
		t.Fatalf("grace generation %d missing: %v", gen-1, err)
	}
	if _, err := os.Stat(reg.genPath(0)); !os.IsNotExist(err) {
		t.Fatalf("generation-0 journal survived %d rollovers: %v", gen, err)
	}
	// Both the compacting instance and the instance that was tailing
	// generation 0 see the full view across the rollovers.
	for name, r := range map[string]*JournalRegistry{"appender": reg, "tailer": tailer} {
		got, err := r.Resolve("net")
		if err != nil || len(got) != addrs {
			t.Fatalf("%s post-rollover Resolve = %v, %v, want %d addrs", name, got, err, addrs)
		}
	}
}
