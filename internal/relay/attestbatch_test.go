package relay

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/msp"
	"repro/internal/proof"
	"repro/internal/trace"
	"repro/internal/wire"
)

// batcherFixture is one attestBatcher over a real builder and two
// attestors. ops counts the builder's signatures: every Build signs once
// per attestor, so ops.SignOps()/2 is the number of Build calls.
type batcherFixture struct {
	b         *attestBatcher
	ops       *cryptoutil.OpCounter
	attestors []*msp.Identity
	spec      proof.Spec
}

func newBatcherFixture(t *testing.T, window time.Duration, maxPending int) *batcherFixture {
	t.Helper()
	var attestors []*msp.Identity
	for _, org := range []string{"seller-org", "carrier-org"} {
		ca, err := msp.NewCA(org)
		if err != nil {
			t.Fatalf("NewCA: %v", err)
		}
		id, err := ca.Issue(org+"-peer0", msp.RolePeer)
		if err != nil {
			t.Fatalf("Issue: %v", err)
		}
		attestors = append(attestors, id)
	}
	key, err := cryptoutil.GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	ops := &cryptoutil.OpCounter{}
	return &batcherFixture{
		b:         newAttestBatcher(window, maxPending, proof.NewBuilder(0, ops)),
		ops:       ops,
		attestors: attestors,
		spec: proof.Spec{
			NetworkID:      "source-net",
			QueryDigest:    cryptoutil.Digest([]byte("query")),
			PolicyDigest:   proof.PolicyDigest("AND('seller-org.peer','carrier-org.peer')"),
			Result:         []byte("result"),
			Nonce:          []byte("nonce"),
			ClientPub:      &key.PublicKey,
			RequesterLabel: "requester",
			Now:            time.Now(),
		},
	}
}

func (f *batcherFixture) submit(ctx context.Context) (*wire.QueryResponse, error) {
	return f.b.submit(ctx, f.spec, f.attestors)
}

// builds returns how many Build calls the batcher has made.
func (f *batcherFixture) builds() uint64 {
	return f.ops.SignOps() / uint64(len(f.attestors))
}

func (f *batcherFixture) state() (inflight, groups int, contended bool) {
	f.b.mu.Lock()
	defer f.b.mu.Unlock()
	return f.b.inflight, len(f.b.groups), f.b.contended
}

// settle checks that no build is left counted in flight or enrolled.
func (f *batcherFixture) settle(t *testing.T) {
	t.Helper()
	if inflight, groups, _ := f.state(); inflight != 0 || groups != 0 {
		t.Fatalf("after the case: inflight = %d, open windows = %d, want 0 and 0", inflight, groups)
	}
}

func batchSize(t *testing.T, resp *wire.QueryResponse) uint64 {
	t.Helper()
	size := resp.Attestations[0].BatchSize
	for _, att := range resp.Attestations[1:] {
		if att.BatchSize != size {
			t.Fatalf("attestors disagree on the batch size: %d vs %d", att.BatchSize, size)
		}
	}
	return size
}

func TestAttestBatcher(t *testing.T) {
	// A guard on every submit that must not wait out an hour-long window:
	// enrolling by mistake fails the case instead of hanging the test.
	guard := func(t *testing.T) context.Context {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		t.Cleanup(cancel)
		return ctx
	}

	t.Run("lone build runs inline", func(t *testing.T) {
		f := newBatcherFixture(t, time.Hour, 16)
		f.b.contended = false
		start := time.Now()
		resp, err := f.submit(guard(t))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if took := time.Since(start); took > 10*time.Second {
			t.Fatalf("lone submit took %s", took)
		}
		if size := batchSize(t, resp); size != 1 {
			t.Fatalf("lone build batch size = %d, want 1 (a one-leaf tree)", size)
		}
		if n := f.builds(); n != 1 {
			t.Fatalf("Build calls = %d, want 1", n)
		}
		f.settle(t)
	})

	t.Run("fresh batcher waits for a window", func(t *testing.T) {
		const window = 30 * time.Millisecond
		f := newBatcherFixture(t, window, 16)
		start := time.Now()
		resp, err := f.submit(context.Background())
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if took := time.Since(start); took < window {
			t.Fatalf("first submit returned after %s, before its %s window closed", took, window)
		}
		if size := batchSize(t, resp); size != 1 {
			t.Fatalf("window of one batch size = %d, want 1", size)
		}
		f.settle(t)
	})

	t.Run("overlapping builds share one", func(t *testing.T) {
		f := newBatcherFixture(t, time.Hour, 2)
		ctx := guard(t)
		var wg sync.WaitGroup
		resps := make([]*wire.QueryResponse, 2)
		errs := make([]error, 2)
		for i := range resps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resps[i], errs[i] = f.submit(ctx)
			}(i)
		}
		wg.Wait()
		for i := range resps {
			if errs[i] != nil {
				t.Fatalf("submit %d: %v", i, errs[i])
			}
			if size := batchSize(t, resps[i]); size != 2 {
				t.Fatalf("submit %d batch size = %d, want 2", i, size)
			}
		}
		if n := f.builds(); n != 1 {
			t.Fatalf("Build calls = %d, want 1", n)
		}
		if _, _, contended := f.state(); !contended {
			t.Fatal("a window that caught two builds ended contention")
		}
		f.settle(t)
	})

	t.Run("window of one ends contention", func(t *testing.T) {
		f := newBatcherFixture(t, 10*time.Millisecond, 16)
		if _, err := f.submit(context.Background()); err != nil {
			t.Fatalf("first submit: %v", err)
		}
		if _, _, contended := f.state(); contended {
			t.Fatal("a window that flushed with one entry left the batcher contended")
		}
		// Were the next submit to enroll, it would now wait an hour.
		f.b.mu.Lock()
		f.b.window = time.Hour
		f.b.mu.Unlock()
		resp, err := f.submit(guard(t))
		if err != nil {
			t.Fatalf("lone submit after the window: %v", err)
		}
		if size := batchSize(t, resp); size != 1 {
			t.Fatalf("inline build batch size = %d, want 1", size)
		}
		if n := f.builds(); n != 2 {
			t.Fatalf("Build calls = %d, want 2", n)
		}
		f.settle(t)
	})

	t.Run("cancelled waiter leaves its window serving", func(t *testing.T) {
		f := newBatcherFixture(t, time.Hour, 2)
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := f.submit(cancelled); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
		}
		// The cancelled entry is still enrolled: the next submit fills the
		// window, and its build answers both.
		resp, err := f.submit(guard(t))
		if err != nil {
			t.Fatalf("submit beside a cancelled waiter: %v", err)
		}
		if size := batchSize(t, resp); size != 2 {
			t.Fatalf("batch size = %d, want 2 (the cancelled entry still built)", size)
		}
		if n := f.builds(); n != 1 {
			t.Fatalf("Build calls = %d, want 1", n)
		}
		f.settle(t)
	})
}

// TestAttestBatcherWindowRecordsSignAndSeal: a traced request whose proof
// is built in a window gets the window's sign and seal spans as its own,
// as one built inline does, besides its wait and the build.
func TestAttestBatcherWindowRecordsSignAndSeal(t *testing.T) {
	f := newBatcherFixture(t, time.Millisecond, 8)
	for _, windowed := range []bool{true, false} { // a new batcher starts contended
		rec := trace.New("t", "src")
		if _, err := f.submit(trace.NewContext(context.Background(), rec)); err != nil {
			t.Fatalf("submit: %v", err)
		}
		stages := map[string]int{}
		for _, s := range rec.Spans() {
			stages[s.Stage]++
		}
		if stages[trace.Sign] != len(f.attestors) || stages[trace.Seal] < len(f.attestors)+1 || stages[trace.Build] != 1 {
			t.Fatalf("windowed %v: stages %v, want %d signs, a seal per attestor and the result, one build", windowed, stages, len(f.attestors))
		}
		if _, ok := stages[trace.WindowWait]; ok != windowed {
			t.Fatalf("windowed %v: stages %v", windowed, stages)
		}
	}
	f.settle(t)
}

// TestOpenWindowLookupAllocatesNothing: a build that joins an open window
// finds its group under a key built on the stack, so only the first build
// of a window pays for the key; another attestor set opens a window of its
// own.
func TestOpenWindowLookupAllocatesNothing(t *testing.T) {
	f := newBatcherFixture(t, time.Hour, 16)
	f.b.mu.Lock()
	g := f.b.groupFor(f.attestors)
	allocs := testing.AllocsPerRun(100, func() {
		if f.b.groupFor(f.attestors) != g {
			t.Fatal("the open window's attestor set names another group")
		}
	})
	other := f.b.groupFor(f.attestors[:1])
	f.b.mu.Unlock()
	if other == g {
		t.Fatal("a different attestor set joined the open window")
	}
	f.b.flush(g)
	f.b.flush(other)
	f.settle(t)
	if allocs != 0 {
		t.Fatalf("looking up an open window: %v allocations, want 0", allocs)
	}
}
