// The registry chaos suite: the journal must survive N-process-style
// concurrent registrars without losing a single record, and a reader tailing throughout must never observe a partial
// view. Every case runs twice: once over one generation file that only
// grows, and once with every writer compacting in-band whenever its append
// crosses a deliberately tiny size threshold.
//
// The suite asserts cross-process guarantees that the no-op flock fallback
// on non-unix platforms cannot promise (see flock_other.go) — so it is
// unix-only, like the guarantee. CI runs it -count=3 under -race.
//go:build unix

package relay

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// chaosMode is one way of driving the journal under the chaos suite. Each
// chaos goroutine opens its own instance via open — the per-instance mutex
// then serializes nothing across them, exactly the situation of N relayd
// processes sharing one deployment directory.
type chaosMode struct {
	name         string
	compactBytes int64 // the in-band compaction threshold
}

func chaosModes() []chaosMode {
	return []chaosMode{
		// One registry.jsonl that every writer appends to under the flock
		// and every reader tails: no rollover ever happens.
		{name: "file", compactBytes: math.MaxInt64},
		// Small enough that nearly every append rolls the generation, so
		// compactions from every writer interleave.
		{name: "journal", compactBytes: 512},
	}
}

func (m chaosMode) open(dir string) *JournalRegistry {
	return NewJournalRegistry(filepath.Join(dir, "registry.jsonl"), WithCompactBytes(m.compactBytes))
}

// requireMode fails unless the run took the path the mode names: in-band
// compaction ran for "journal", and never for "file".
func (m chaosMode) requireMode(t *testing.T, reg *JournalRegistry) {
	t.Helper()
	gen, err := reg.readGen()
	if err != nil {
		t.Fatalf("readGen: %v", err)
	}
	if compacting := m.compactBytes != math.MaxInt64; compacting != (gen > 0) {
		t.Fatalf("%s mode ended at generation %d", m.name, gen)
	}
}

// TestRegistryChaosConcurrentRegistrars chaos-drives the shared deploy-dir
// protocol: concurrent registrars churn through renewals,
// deregister/re-register cycles and prunes — in the journal mode each
// compacting the log underneath the others whenever its append crosses the
// threshold. Each (registrar, round) pair registers a distinct address that
// is never touched again, so a single lost record anywhere in the run is
// permanently visible at the end; a registrar re-announcing the same
// address would instead silently heal the loss one round later and mask
// the bug.
func TestRegistryChaosConcurrentRegistrars(t *testing.T) {
	for _, mode := range chaosModes() {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()

			// A decoy whose lease is already lapsed gives the concurrent
			// Prunes something real to remove while registrations fly.
			decoy := mode.open(dir)
			decoy.now = func() time.Time { return time.Now().Add(-time.Hour) }
			if err := decoy.RegisterLease("net-0", "10.9.9.9:1", time.Minute); err != nil {
				t.Fatalf("seed decoy: %v", err)
			}

			const registrars = 8
			const rounds = 12
			addrFor := func(i, r int) string { return fmt.Sprintf("10.0.%d.%d:9080", i, r) }
			netFor := func(i int) string { return fmt.Sprintf("net-%d", i%2) }
			start := make(chan struct{})
			errs := make(chan error, registrars)
			var wg sync.WaitGroup
			for i := 0; i < registrars; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					// One registry instance per goroutine = one relayd process.
					reg := mode.open(dir)
					churn := fmt.Sprintf("10.8.8.%d:9080", i)
					<-start
					for r := 0; r < rounds; r++ {
						if err := reg.RegisterLease(netFor(i), addrFor(i, r), time.Minute); err != nil {
							errs <- fmt.Errorf("registrar %d round %d: RegisterLease: %w", i, r, err)
							return
						}
						switch r % 4 {
						case 1:
							// Restart churn on a dedicated address.
							if err := reg.RegisterLease(netFor(i), churn, time.Minute); err != nil {
								errs <- fmt.Errorf("registrar %d round %d: churn register: %w", i, r, err)
								return
							}
							if err := reg.Deregister(netFor(i), churn); err != nil {
								errs <- fmt.Errorf("registrar %d round %d: churn deregister: %w", i, r, err)
								return
							}
						case 3:
							if _, err := reg.Prune(); err != nil {
								errs <- fmt.Errorf("registrar %d round %d: Prune: %w", i, r, err)
								return
							}
						}
					}
				}(i)
			}
			close(start)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if t.Failed() {
				t.FailNow()
			}

			// Every registration of every round must have survived every
			// concurrent writer and every compaction.
			final := mode.open(dir)
			mode.requireMode(t, final)
			lost := 0
			for i := 0; i < registrars; i++ {
				addrs, err := final.Resolve(netFor(i))
				if err != nil {
					t.Fatalf("Resolve(%s): %v", netFor(i), err)
				}
				for r := 0; r < rounds; r++ {
					if !containsAddr(addrs, addrFor(i, r)) {
						lost++
					}
				}
			}
			if lost > 0 {
				t.Fatalf("%d of %d registrations lost to concurrent writers", lost, registrars*rounds)
			}
		})
	}
}

// TestRegistryChaosReaderNeverSeesPartialView: a fixed membership of K
// addresses is renewed by concurrent heartbeaters (in the journal mode
// rolling the generation over and over); readers tailing throughout must
// see exactly K addresses on every single Resolve. A reader that caught a
// torn append, a half-written snapshot, or tailed a generation file past
// its rollover, would observe fewer — the invariant the flock'd appends
// and the pointer-flip protocol exist to protect.
func TestRegistryChaosReaderNeverSeesPartialView(t *testing.T) {
	for _, mode := range chaosModes() {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			seed := mode.open(dir)
			const members = 6
			for i := 0; i < members; i++ {
				if err := seed.Register("net", fmt.Sprintf("10.2.0.%d:9080", i)); err != nil {
					t.Fatalf("seed Register: %v", err)
				}
			}

			const renewers = 4
			const readers = 3
			stop := make(chan struct{})
			errs := make(chan error, renewers+readers)
			var renewerWG sync.WaitGroup
			for i := 0; i < renewers; i++ {
				renewerWG.Add(1)
				go func(i int) {
					defer renewerWG.Done()
					reg := mode.open(dir)
					for r := 0; ; r++ {
						select {
						case <-stop:
							return
						default:
						}
						if err := reg.RegisterLease("net", fmt.Sprintf("10.2.0.%d:9080", r%members), time.Minute); err != nil {
							errs <- fmt.Errorf("renewer %d: %w", i, err)
							return
						}
					}
				}(i)
			}
			var readerWG sync.WaitGroup
			for i := 0; i < readers; i++ {
				readerWG.Add(1)
				go func(i int) {
					defer readerWG.Done()
					reg := mode.open(dir) // one tailing view per reader
					for r := 0; r < 150; r++ {
						addrs, err := reg.Resolve("net")
						if err != nil {
							errs <- fmt.Errorf("reader %d iteration %d: %w", i, r, err)
							return
						}
						if len(addrs) != members {
							errs <- fmt.Errorf("reader %d iteration %d: partial view — %d of %d addresses: %v",
								i, r, len(addrs), members, addrs)
							return
						}
					}
				}(i)
			}
			readerWG.Wait()
			close(stop)
			renewerWG.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			mode.requireMode(t, mode.open(dir))
		})
	}
}
