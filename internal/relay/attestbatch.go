package relay

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/msp"
	"repro/internal/proof"
	"repro/internal/wire"
)

// attestBatcher accumulates concurrent proof builds into short windows so
// one ECDSA signature per attestor covers a whole window of distinct
// queries ((*proof.Builder).Build). A window opens when the first query
// arrives and closes after the configured duration or when maxPending
// queries are waiting, whichever comes first — so a lone query pays at most
// the window in added latency and is then signed over its own metadata,
// while a burst of concurrent distinct queries collapses to one signature
// per attestor. Windows are grouped by attestor set: every spec handed to
// one Build call must be attested by the same identities.
type attestBatcher struct {
	window     time.Duration
	maxPending int
	builder    *proof.Builder

	mu     sync.Mutex
	groups map[string]*batchGroup
}

type batchGroup struct {
	attestors []*msp.Identity
	entries   []*batchEntry
	timer     *time.Timer
}

type batchEntry struct {
	spec proof.Spec
	done chan struct{}
	resp *wire.QueryResponse
	err  error
}

func newAttestBatcher(window time.Duration, maxPending int, builder *proof.Builder) *attestBatcher {
	return &attestBatcher{
		window:     window,
		maxPending: maxPending,
		builder:    builder,
		groups:     map[string]*batchGroup{},
	}
}

// attestorSetKey names a window group: the sorted attestor identities.
func attestorSetKey(ids []*msp.Identity) string {
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = id.OrgID + "/" + id.Name
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// submit enrolls one proof build in the current window for its attestor
// set and blocks until the window flushes (or ctx expires). The build
// itself runs on whichever goroutine closes the window — the timer's for a
// window that filled slowly, the maxPending-th submitter's for one that
// filled fast.
func (b *attestBatcher) submit(ctx context.Context, spec proof.Spec, attestors []*msp.Identity) (*wire.QueryResponse, error) {
	entry := &batchEntry{spec: spec, done: make(chan struct{})}
	key := attestorSetKey(attestors)

	b.mu.Lock()
	g := b.groups[key]
	if g == nil {
		g = &batchGroup{attestors: attestors}
		b.groups[key] = g
		g.timer = time.AfterFunc(b.window, func() { b.flush(key, g) })
	}
	g.entries = append(g.entries, entry)
	full := len(g.entries) >= b.maxPending
	b.mu.Unlock()

	if full {
		b.flush(key, g)
	}

	select {
	case <-entry.done:
		return entry.resp, entry.err
	case <-ctx.Done():
		// The window still builds this entry's proof — cancelling one
		// requester must not fail the rest of the batch — but this
		// requester stops waiting for it.
		return nil, ctx.Err()
	}
}

// flush closes a window and builds its proofs. Exactly one caller wins the
// removal of the group from the map (the timer and a filling submitter can
// race); the loser finds the group already gone and returns.
func (b *attestBatcher) flush(key string, g *batchGroup) {
	b.mu.Lock()
	if b.groups[key] != g {
		b.mu.Unlock()
		return
	}
	delete(b.groups, key)
	g.timer.Stop()
	entries := g.entries
	b.mu.Unlock()

	specs := make([]proof.Spec, len(entries))
	for i, e := range entries {
		specs[i] = e.spec
	}
	// Background context: the window's build serves every waiter, so no
	// single requester's cancellation may abort it.
	resps, err := b.builder.Build(context.Background(), specs, g.attestors)
	for i, e := range entries {
		if err != nil {
			e.err = err
		} else {
			e.resp = resps[i]
		}
		close(e.done)
	}
}
