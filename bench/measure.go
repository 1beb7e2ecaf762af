package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/relay"
)

// canaryIters is how many reference-kernel iterations machine.canary_ms
// is the median of, before and after the window.
const canaryIters = 200

// maxFailures stops a client whose deployment is broken from spinning on
// fast errors for the whole window.
const maxFailures = 20

// window is what one measured closed loop observed, from outside the
// program: client-side timings plus counters that are free to read
// (relay.Stats, ledger heights, runtime.MemStats, rusage), so nothing is
// traced while it runs.
type window struct {
	lat      [][]time.Duration // per client: op latency
	failed   int
	firstErr error

	wall  time.Duration
	cpu   time.Duration
	mem   runtime.MemStats // deltas: TotalAlloc, Mallocs, NumGC; HeapAlloc at end
	fleet relay.Stats      // summed over every relay, delta over the window

	srcBlocks, dstBlocks   uint64 // ledger height deltas
	srcCommits, dstCommits int    // valid transactions in those blocks
	canaryMs               float64
}

func (w *window) ops() int {
	n := 0
	for _, l := range w.lat {
		n += len(l)
	}
	return n
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func fleetStats(d *deployment) relay.Stats {
	var sum relay.Stats
	for _, s := range d.chain.AllServers() {
		sum = sum.Merge(s.Relay.Stats())
	}
	return sum
}

// measure runs the closed loop for dur: each client issues its next op only
// after the previous one answered. An op in flight at the deadline is
// allowed to finish and is counted.
func measure(ctx context.Context, d *deployment, ref *reference, dur time.Duration) (*window, error) {
	w := &window{lat: make([][]time.Duration, len(d.clients))}
	// Sample buffers are sized up front so their growth is not charged to
	// the program's allocation metrics.
	capacity := int(dur/(200*time.Microsecond)) + 1024
	for c := range d.clients {
		w.lat[c] = make([]time.Duration, 0, capacity)
	}
	before, err := ref.ms(canaryIters)
	if err != nil {
		return nil, err
	}

	stl, swt := d.chain.World.STL, d.chain.World.SWT
	srcFrom, dstFrom := height(stl), height(swt)
	fleetFrom := fleetStats(d)
	runtime.GC()
	var memFrom, memTo runtime.MemStats
	runtime.ReadMemStats(&memFrom)
	cpuFrom, err := cpuTime()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(dur)

	var mu sync.Mutex // guards failed, firstErr
	var wg sync.WaitGroup
	for c := range d.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			failures := 0
			for time.Now().Before(deadline) && ctx.Err() == nil && failures < maxFailures {
				opStart := time.Now()
				_, _, err := d.op(ctx, c)
				if err != nil {
					failures++
					mu.Lock()
					w.failed++
					if w.firstErr == nil {
						w.firstErr = err
					}
					mu.Unlock()
					continue
				}
				w.lat[c] = append(w.lat[c], time.Since(opStart))
			}
		}(c)
	}
	wg.Wait()

	w.wall = time.Since(start)
	cpuTo, err := cpuTime()
	if err != nil {
		return nil, err
	}
	w.cpu = cpuTo - cpuFrom
	runtime.ReadMemStats(&memTo)
	w.mem = memTo
	w.mem.TotalAlloc -= memFrom.TotalAlloc
	w.mem.Mallocs -= memFrom.Mallocs
	w.mem.NumGC -= memFrom.NumGC
	w.fleet = fleetStats(d).Sub(fleetFrom)

	srcTo, dstTo := height(stl), height(swt)
	w.srcBlocks, w.dstBlocks = srcTo-srcFrom, dstTo-dstFrom
	if w.srcCommits, _, err = validCommits(stl, srcFrom, srcTo); err != nil {
		return nil, err
	}
	if w.dstCommits, _, err = validCommits(swt, dstFrom, dstTo); err != nil {
		return nil, err
	}
	after, err := ref.ms(canaryIters)
	if err != nil {
		return nil, err
	}
	w.canaryMs = (before + after) / 2
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return w, nil
}

// intent fails a window that measured the wrong path: numbers for a cache
// miss are not numbers for query-hot, however good they look.
func (w *window) intent(d *deployment) error {
	ops := float64(w.ops())
	if ops == 0 {
		return fmt.Errorf("no op completed")
	}
	s := w.fleet
	proofs := float64(s.AttestationCacheHits + s.AttestationCacheJoins + s.AttestationCacheMisses)
	switch d.wl.kind {
	case opQueryHot:
		if share := float64(s.AttestationCacheHits) / proofs; share < 0.99 {
			return fmt.Errorf("attestation-cache hit share %.4f < 0.99: not the hot path", share)
		}
		if s.SignOps != 0 || s.EncryptOps != 0 || s.ECDHOps != 0 {
			return fmt.Errorf("hot queries did proof crypto: %d sign, %d encrypt, %d ecdh", s.SignOps, s.EncryptOps, s.ECDHOps)
		}
	case opQueryCold:
		if s.AttestationCacheMisses != uint64(proofs) {
			return fmt.Errorf("%d of %.0f cold queries were not full builds", uint64(proofs)-s.AttestationCacheMisses, proofs)
		}
	case opInvoke:
		if fwd := float64(s.ForwardedInvokes) / ops; fwd != float64(d.wl.hubs) {
			return fmt.Errorf("%.3f forwards per invoke, want %d: not the %d-hop path", fwd, d.wl.hubs, d.wl.hubs+1)
		}
		if w.srcCommits != w.ops() {
			return fmt.Errorf("%d valid STL commits for %d invokes", w.srcCommits, w.ops())
		}
	case opTransfer:
		if w.dstCommits != w.ops() {
			return fmt.Errorf("%d valid SWT commits for %d transfers", w.dstCommits, w.ops())
		}
	}
	if d.wl.kind == opQueryCold || d.wl.kind == opQueryHot {
		if w.srcBlocks != 0 || w.dstBlocks != 0 {
			return fmt.Errorf("a query workload grew the ledgers by %d (STL) and %d (SWT) blocks", w.srcBlocks, w.dstBlocks)
		}
	}
	return nil
}
