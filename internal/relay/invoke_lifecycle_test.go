package relay

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// fakeLedger is the stand-in ledger every test TxDriver embeds: the
// response each interop key committed, kept as the marshalled bytes the
// driver returned. Its ReplayInvoke answers like FabricDriver's — found
// with the committed response byte for byte, or not found — so the relay
// runs the same duplicate path against a fake as against a real network.
// The zero value is an empty ledger.
type fakeLedger struct {
	mu        sync.Mutex
	committed map[string][]byte
}

// commit records a successful invoke; the first commit of a key wins, as
// the committer marks a second one Duplicate.
func (l *fakeLedger) commit(q *wire.Query, resp *wire.QueryResponse) {
	key := q.InteropKey()
	if key == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.committed == nil {
		l.committed = make(map[string][]byte)
	}
	if _, ok := l.committed[key]; !ok {
		l.committed[key] = resp.Marshal()
	}
}

func (l *fakeLedger) ReplayInvoke(ctx context.Context, q *wire.Query) (*wire.QueryResponse, bool, error) {
	l.mu.Lock()
	raw, ok := l.committed[q.InteropKey()]
	l.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	resp, err := wire.UnmarshalQueryResponse(raw)
	return resp, err == nil, err
}

// Every test TxDriver answers duplicates from its fake ledger; a driver
// that lost ReplayInvoke would silently stop being a TxDriver.
var (
	_ TxDriver = (*tallyTxDriver)(nil)
	_ TxDriver = (*countingTxDriver)(nil)
	_ TxDriver = (*slowTxDriver)(nil)
	_ TxDriver = (*blockingTxDriver)(nil)
	_ TxDriver = (*gateDriver)(nil)
)

// tallyTxDriver executes invokes against its fake ledger, counting
// executions — the instrument for pinning down how often the relay
// actually runs a transaction versus replaying one.
type tallyTxDriver struct {
	fakeLedger
	executions atomic.Int64
	fail       atomic.Bool
	response   []byte
}

func (d *tallyTxDriver) Platform() string { return "test" }

func (d *tallyTxDriver) ServeQuery(ctx context.Context, q *wire.Query) ([]byte, error) {
	return (&wire.QueryResponse{}).Marshal(), nil // ServeQuery leaves the ID to the relay
}

func (d *tallyTxDriver) Invoke(ctx context.Context, q *wire.Query) (*wire.QueryResponse, error) {
	d.executions.Add(1)
	if d.fail.Load() {
		return nil, errors.New("injected invoke failure")
	}
	resp := &wire.QueryResponse{RequestID: q.RequestID, EncryptedResult: d.response}
	d.commit(q, resp)
	return resp, nil
}

func invokeQuery(requestID string) *wire.Query {
	return &wire.Query{
		RequestID:         requestID,
		RequestingNetwork: "dest-net",
		TargetNetwork:     "src-net",
		Contract:          "cc",
		Function:          "fn",
		RequesterCertPEM:  []byte("cert-pem"),
	}
}

func invokeEnvelope(q *wire.Query) *wire.Envelope {
	return &wire.Envelope{
		Version:   wire.ProtocolVersion,
		Type:      wire.MsgInvoke,
		RequestID: q.RequestID,
		Payload:   q.Marshal(),
	}
}

// pendingInvokes is the number of in-flight claims the relay holds.
func pendingInvokes(r *Relay) int {
	r.invokeMu.Lock()
	defer r.invokeMu.Unlock()
	return len(r.invokePending)
}

// replyResult decodes a query-response envelope's result, failing the test
// on any other reply or an application error.
func replyResult(t *testing.T, reply *wire.Envelope) []byte {
	t.Helper()
	if reply.Type != wire.MsgQueryResponse {
		t.Fatalf("reply = %s (%s), want a query response", reply.Type, reply.Payload)
	}
	resp, err := wire.UnmarshalQueryResponse(reply.Payload)
	if err != nil {
		t.Fatalf("unmarshal reply: %v", err)
	}
	if resp.Error != "" {
		t.Fatalf("application error: %s", resp.Error)
	}
	return resp.EncryptedResult
}

// TestInvokeReplayCacheLifecyclePinned is the regression test for the
// duplicate-invoke lifecycle: across an execution and any number of
// replays of the same request, the transaction runs once, every replay is
// byte-identical to the original, and no pending claim survives (the
// executor's release and each replay's release fire exactly once).
func TestInvokeReplayCacheLifecyclePinned(t *testing.T) {
	driver := &tallyTxDriver{response: []byte("committed-response")}
	r := New("src-net", NewStaticRegistry(), NewHub())
	r.RegisterDriver("src-net", driver)
	q := invokeQuery("lifecycle-1")

	first := r.HandleEnvelope(context.Background(), invokeEnvelope(q))
	if first.Type != wire.MsgQueryResponse {
		t.Fatalf("first reply = %s (%s)", first.Type, first.Payload)
	}
	if got := driver.executions.Load(); got != 1 {
		t.Fatalf("executions after first invoke = %d", got)
	}
	if n := pendingInvokes(r); n != 0 {
		t.Fatalf("pending claims after first invoke = %d, want 0", n)
	}
	for i := 0; i < 50; i++ {
		reply := r.HandleEnvelope(context.Background(), invokeEnvelope(q))
		if reply.Type != wire.MsgQueryResponse {
			t.Fatalf("replay %d reply = %s (%s)", i, reply.Type, reply.Payload)
		}
		if !bytes.Equal(reply.Payload, first.Payload) {
			t.Fatalf("replay %d payload diverged from original", i)
		}
	}
	if got := driver.executions.Load(); got != 1 {
		t.Fatalf("executions after replays = %d, want 1", got)
	}
	if n := pendingInvokes(r); n != 0 {
		t.Fatalf("pending claims after replays = %d, want 0", n)
	}
	if s := r.Stats(); s.InvokeReplays != 50 || s.InvokesServed != 1 {
		t.Fatalf("stats = %+v, want 50 ledger replays and 1 execution", s)
	}
}

// TestInvokeFailedAttemptReleasesPending: a failed execution must leave no
// pending claim behind (or duplicates would block forever) and nothing on
// the ledger to replay, so a retry with the same ID executes again.
func TestInvokeFailedAttemptReleasesPending(t *testing.T) {
	driver := &tallyTxDriver{response: []byte("r")}
	driver.fail.Store(true)
	r := New("src-net", NewStaticRegistry(), NewHub())
	r.RegisterDriver("src-net", driver)
	q := invokeQuery("lifecycle-fail-1")

	reply := r.HandleEnvelope(context.Background(), invokeEnvelope(q))
	resp, err := wire.UnmarshalQueryResponse(reply.Payload)
	if err != nil || resp.Error == "" {
		t.Fatalf("expected application error reply, got %s (err=%v)", reply.Payload, err)
	}
	if n := pendingInvokes(r); n != 0 {
		t.Fatalf("pending claims after failed invoke = %d, want 0", n)
	}

	driver.fail.Store(false)
	if reply := r.HandleEnvelope(context.Background(), invokeEnvelope(q)); reply.Type != wire.MsgQueryResponse {
		t.Fatalf("retry reply = %s (%s)", reply.Type, reply.Payload)
	}
	if got := driver.executions.Load(); got != 2 {
		t.Fatalf("executions = %d, want 2 (failed attempt + successful retry)", got)
	}
	if n := pendingInvokes(r); n != 0 {
		t.Fatalf("pending claims after retry = %d, want 0", n)
	}
}

// TestInvokeLedgerReplaySecondRelay: a second relay process fronting the
// same ledger answers every duplicate from the ledger without executing —
// each one counted as a ledger replay, since no relay keeps a response in
// memory.
func TestInvokeLedgerReplaySecondRelay(t *testing.T) {
	// One driver on both relays: the two processes front one network, and
	// the fake ledger is what they share.
	driver := &tallyTxDriver{response: []byte("ledger-committed")}
	relayA := New("src-net", NewStaticRegistry(), NewHub())
	relayA.RegisterDriver("src-net", driver)
	relayB := New("src-net", NewStaticRegistry(), NewHub())
	relayB.RegisterDriver("src-net", driver)

	q := invokeQuery("cross-relay-1")
	original := replyResult(t, relayA.HandleEnvelope(context.Background(), invokeEnvelope(q)))
	for i := 0; i < 10; i++ {
		replayed := replyResult(t, relayB.HandleEnvelope(context.Background(), invokeEnvelope(q)))
		if !bytes.Equal(replayed, original) {
			t.Fatalf("relay B replay %d = %q, want relay A's original %q", i, replayed, original)
		}
	}
	if got := driver.executions.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
	if stats := relayB.Stats(); stats.InvokeReplays != 10 || stats.InvokesServed != 0 {
		t.Fatalf("relay B stats = %+v, want 10 ledger replays and 0 executions", stats)
	}
	if n := pendingInvokes(relayB); n != 0 {
		t.Fatalf("relay B pending claims = %d, want 0", n)
	}
}

// TestInvokeDuplicateWaiterDoesNotReleaseExecutor: a duplicate that gives
// up (context cancelled) while the original is still executing must not
// tear down the executor's pending claim — the fix pinned by binding
// release to the claim. A later duplicate must still wait for the original
// and then replay its outcome.
func TestInvokeDuplicateWaiterDoesNotReleaseExecutor(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	driver := &blockingTxDriver{gate: gate, started: started, response: []byte("slow-commit")}
	r := New("src-net", NewStaticRegistry(), NewHub())
	r.RegisterDriver("src-net", driver)
	q := invokeQuery("waiter-1")

	execDone := make(chan *wire.Envelope, 1)
	go func() {
		execDone <- r.HandleEnvelope(context.Background(), invokeEnvelope(q))
	}()
	<-started // the executor owns the pending claim and is now blocked

	// A duplicate arrives and abandons the wait.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if reply := r.HandleEnvelope(ctx, invokeEnvelope(q)); reply.Type != wire.MsgError {
		t.Fatalf("cancelled duplicate reply = %s, want error", reply.Type)
	}
	if n := pendingInvokes(r); n != 1 {
		t.Fatalf("pending claims after abandoned duplicate = %d, want 1 (executor still owns it)", n)
	}

	// A patient duplicate waits for the executor's result.
	waiterDone := make(chan *wire.Envelope, 1)
	go func() {
		waiterDone <- r.HandleEnvelope(context.Background(), invokeEnvelope(q))
	}()
	close(gate) // let the executor commit
	exec := <-execDone
	waited := <-waiterDone
	if exec.Type != wire.MsgQueryResponse || waited.Type != wire.MsgQueryResponse {
		t.Fatalf("executor=%s waiter=%s, want both query responses", exec.Type, waited.Type)
	}
	if !bytes.Equal(exec.Payload, waited.Payload) {
		t.Fatal("waiter's replay diverged from executor's response")
	}
	if got := driver.executions.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
	if n := pendingInvokes(r); n != 0 {
		t.Fatalf("pending claims after settle = %d, want 0", n)
	}
}

// TestInvokeWaiterRetriesFailedOriginal: a duplicate that waited on an
// original which failed finds nothing committed, so it runs as a retry —
// safe because the transaction ID derives from the interop key — and
// executes exactly once.
func TestInvokeWaiterRetriesFailedOriginal(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 2)
	driver := &blockingTxDriver{gate: gate, started: started, response: []byte("retried")}
	driver.failNext.Store(true)
	r := New("src-net", NewStaticRegistry(), NewHub())
	r.RegisterDriver("src-net", driver)
	q := invokeQuery("waiter-retry-1")

	execDone := make(chan *wire.Envelope, 1)
	go func() {
		execDone <- r.HandleEnvelope(context.Background(), invokeEnvelope(q))
	}()
	<-started
	waiterDone := make(chan *wire.Envelope, 1)
	go func() {
		waiterDone <- r.HandleEnvelope(context.Background(), invokeEnvelope(q))
	}()
	// Give the duplicate time to start waiting on the original. The outcome
	// checked below is the same if it arrives late (it then simply retries);
	// the pause only makes the test exercise the wait.
	time.Sleep(20 * time.Millisecond)
	close(gate)

	failed, err := wire.UnmarshalQueryResponse((<-execDone).Payload)
	if err != nil || failed.Error == "" {
		t.Fatalf("original = %+v (err=%v), want its injected failure", failed, err)
	}
	if got := replyResult(t, <-waiterDone); !bytes.Equal(got, []byte("retried")) {
		t.Fatalf("waiter result = %q, want its own retry's", got)
	}
	if got := driver.executions.Load(); got != 2 {
		t.Fatalf("executions = %d, want 2 (failed original + one retry)", got)
	}
	if n := pendingInvokes(r); n != 0 {
		t.Fatalf("pending claims after settle = %d, want 0", n)
	}
}

// TestInvokeReusedIDOnColocatedNetwork: one relay may front several
// co-located networks, and the interop key does not include the target
// network. A request ID already committed on network A and reused against
// network B is answered by B's own ledger: it executes there once, then
// replays B's outcome — never network A's payload.
func TestInvokeReusedIDOnColocatedNetwork(t *testing.T) {
	driverA := &tallyTxDriver{response: []byte("net-a")}
	driverB := &tallyTxDriver{response: []byte("net-b")}
	r := New("src-net", NewStaticRegistry(), NewHub())
	r.RegisterDriver("src-net", driverA)
	r.RegisterDriver("other-net", driverB)

	q := invokeQuery("cross-net-1")
	if got := replyResult(t, r.HandleEnvelope(context.Background(), invokeEnvelope(q))); !bytes.Equal(got, []byte("net-a")) {
		t.Fatalf("net A invoke = %q", got)
	}
	other := invokeQuery("cross-net-1")
	other.TargetNetwork = "other-net"
	for i := 0; i < 2; i++ {
		if got := replyResult(t, r.HandleEnvelope(context.Background(), invokeEnvelope(other))); !bytes.Equal(got, []byte("net-b")) {
			t.Fatalf("net B invoke %d = %q, want network B's own outcome", i, got)
		}
	}
	if a, b := driverA.executions.Load(), driverB.executions.Load(); a != 1 || b != 1 {
		t.Fatalf("executions A=%d B=%d, want 1 each", a, b)
	}
}

// blockingTxDriver parks Invoke on a gate so tests can hold a request
// in-flight deliberately. With failNext set, the next execution fails.
type blockingTxDriver struct {
	fakeLedger
	executions atomic.Int64
	failNext   atomic.Bool
	gate       chan struct{}
	started    chan struct{}
	response   []byte
}

func (d *blockingTxDriver) Platform() string { return "test" }

func (d *blockingTxDriver) ServeQuery(ctx context.Context, q *wire.Query) ([]byte, error) {
	return nil, fmt.Errorf("not a query driver")
}

func (d *blockingTxDriver) Invoke(ctx context.Context, q *wire.Query) (*wire.QueryResponse, error) {
	d.executions.Add(1)
	select {
	case d.started <- struct{}{}:
	default:
	}
	<-d.gate
	if d.failNext.CompareAndSwap(true, false) {
		return nil, errors.New("injected invoke failure")
	}
	resp := &wire.QueryResponse{RequestID: q.RequestID, EncryptedResult: d.response}
	d.commit(q, resp)
	return resp, nil
}
