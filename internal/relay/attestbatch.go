package relay

import (
	"context"
	"sync"
	"time"

	"repro/internal/msp"
	"repro/internal/proof"
	"repro/internal/trace"
	"repro/internal/wire"
)

// attestBatcher accumulates concurrent proof builds into short windows so
// one ECDSA signature per attestor covers a whole window of distinct
// queries ((*proof.Builder).Build). It waits only when there is someone to
// wait for: a build that finds no other build in flight runs at once on
// its caller's goroutine and is signed over its own metadata. Once two
// builds have overlapped the batcher is contended, and every build enrolls
// in a window that closes after the configured duration or when maxPending
// builds are waiting, whichever comes first; a window that closes holding
// a single build has caught nobody, and ends contention. Windows are
// grouped by attestor set: every spec handed to one Build call must be
// attested by the same identities.
//
// Overlap is judged by builds in flight, never by arrival times: a
// sequential caller issuing cold queries a millisecond apart is alone, and
// must not be made to wait for itself.
type attestBatcher struct {
	window     time.Duration
	maxPending int
	builder    *proof.Builder

	mu     sync.Mutex
	groups map[string]*batchGroup
	// inflight counts builds submitted and not yet finished.
	inflight int
	// contended records that an overlap was seen and no window has since
	// closed alone. A new batcher starts contended: it has no evidence that
	// it serves one caller at a time until a window shows it.
	contended bool
}

type batchGroup struct {
	key       string // its entry in attestBatcher.groups
	attestors []*msp.Identity
	entries   []*batchEntry
	timer     *time.Timer
}

type batchEntry struct {
	spec    proof.Spec
	rec     *trace.Recorder // nil when the request is not traced
	done    chan struct{}
	flushed time.Time // when the window closed, read once done is closed
	resp    *wire.QueryResponse
	err     error
}

func newAttestBatcher(window time.Duration, maxPending int, builder *proof.Builder) *attestBatcher {
	return &attestBatcher{
		window:     window,
		maxPending: maxPending,
		builder:    builder,
		groups:     map[string]*batchGroup{},
		contended:  true,
	}
}

// groupFor returns the open window of the attestor set, opening one if
// there is none. The window's key is each attestor identity,
// length-prefixed, in the order given: a driver lists one attestor per
// policy organization in the policy's sorted order, so a set always
// arrives in one order. The key is built on the stack, so finding an open
// window allocates nothing; only opening one copies it. Caller holds b.mu.
func (b *attestBatcher) groupFor(attestors []*msp.Identity) *batchGroup {
	var buf [256]byte
	key := buf[:0]
	for _, id := range attestors {
		key = appendField(appendField(key, id.OrgID), id.Name)
	}
	if g := b.groups[string(key)]; g != nil {
		return g
	}
	g := &batchGroup{key: string(key), attestors: attestors}
	b.groups[g.key] = g
	g.timer = time.AfterFunc(b.window, func() { b.flush(g) })
	return g
}

// submit builds one proof. Alone, it builds inline under the requester's
// ctx. Otherwise it enrolls in the current window for its attestor set and
// blocks until the window flushes (or ctx expires); the window's build
// runs on whichever goroutine closes it — the timer's for a window that
// filled slowly, the maxPending-th submitter's for one that filled fast.
// A traced request records its wait for the window and the build apart,
// and the window's sign and seal spans as its own.
func (b *attestBatcher) submit(ctx context.Context, spec proof.Spec, attestors []*msp.Identity) (*wire.QueryResponse, error) {
	rec := trace.FromContext(ctx)
	start := rec.Start()
	b.mu.Lock()
	if b.inflight == 0 && !b.contended {
		b.inflight++
		b.mu.Unlock()
		resps, err := b.builder.Build(ctx, []proof.Spec{spec}, attestors)
		rec.End(trace.Build, start)
		b.mu.Lock()
		b.inflight--
		b.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return resps[0], nil
	}
	b.contended = true
	b.inflight++
	entry := &batchEntry{spec: spec, rec: rec, done: make(chan struct{})}
	g := b.groupFor(attestors)
	g.entries = append(g.entries, entry)
	full := len(g.entries) >= b.maxPending
	b.mu.Unlock()

	if full {
		b.flush(g)
	}

	select {
	case <-entry.done:
		if rec != nil {
			rec.Record(trace.WindowWait, start, entry.flushed.Sub(start))
			rec.End(trace.Build, entry.flushed)
		}
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
func (b *attestBatcher) flush(g *batchGroup) {
	b.mu.Lock()
	if b.groups[g.key] != g {
		b.mu.Unlock()
		return
	}
	delete(b.groups, g.key)
	g.timer.Stop()
	entries := g.entries
	b.mu.Unlock()

	flushed := time.Now()
	specs := make([]proof.Spec, len(entries))
	for i, e := range entries {
		specs[i] = e.spec
		e.flushed = flushed
	}
	// Background context: the window's build serves every waiter, so no
	// single requester's cancellation may abort it. When a waiter is
	// traced, the build records on a recorder of the window's own.
	ctx := context.Background()
	var window *trace.Recorder
	for _, e := range entries {
		if e.rec != nil {
			window = trace.New("", "")
			ctx = trace.NewContext(ctx, window)
			break
		}
	}
	resps, err := b.builder.Build(ctx, specs, g.attestors)

	b.mu.Lock()
	b.inflight -= len(entries)
	if len(entries) == 1 {
		b.contended = false
	}
	b.mu.Unlock()

	for i, e := range entries {
		if err != nil {
			e.err = err
		} else {
			e.resp = resps[i]
		}
		window.CopyTo(e.rec)
		close(e.done)
	}
}
