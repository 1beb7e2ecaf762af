package scenario

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"fmt"
	"sync"
	"testing"

	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/msp"
	"repro/internal/proof"
	"repro/internal/relay"
	"repro/internal/wire"
)

// STLRelayAddrB is the second, redundant relay fronting the STL network —
// a separate relay instance with its own in-flight claims and health
// tracker, standing in for a second relayd process in an HA deployment.
const STLRelayAddrB = "stl-relay-b:9082"

// buildExactlyOnceWorld wires the trade world plus: the audit contract and
// its access rule on STL (DeployAuditLog), and a second relay fronting STL
// registered in discovery after the first.
func buildExactlyOnceWorld(t *testing.T) (*TradeWorld, *relay.Relay) {
	t.Helper()
	w, err := Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := DeployAuditLog(w); err != nil {
		t.Fatalf("DeployAuditLog: %v", err)
	}
	relayB := relay.New(tradelens.NetworkID, w.Registry, w.Hub)
	relayB.RegisterDriver(tradelens.NetworkID, relay.NewFabricDriver(w.STL.Fabric, "default"))
	w.Hub.Attach(STLRelayAddrB, relayB)
	w.Registry.Register(tradelens.NetworkID, STLRelayAddrB)
	return w, relayB
}

// stlPolicyExpr is the verification policy both STL organizations attest.
func stlPolicyExpr() string {
	return fmt.Sprintf("AND('%s.peer','%s.peer')", tradelens.SellerOrg, tradelens.CarrierOrg)
}

// invokeTxID computes the ledger transaction ID a given requester's invoke
// commits under (the TxID is requester-scoped, not just request-ID-scoped).
func invokeTxID(requestID string, certPEM []byte) string {
	return relay.InteropTxID(&wire.Query{
		RequestID:         requestID,
		RequestingNetwork: wetrade.NetworkID,
		RequesterCertPEM:  certPEM,
	})
}

// committedInvokes counts how many transactions with the given ID the STL
// ledger committed per validation code.
func committedInvokes(t *testing.T, w *TradeWorld, txID string) (valid, duplicate int) {
	t.Helper()
	counts, err := CommitsByTxID(w.STL.Fabric)
	if err != nil {
		t.Fatalf("CommitsByTxID: %v", err)
	}
	return counts[txID].Valid, counts[txID].Duplicate
}

// TestExactlyOnceFailoverToSecondRelay: the client commits an invoke
// through the first STL relay, the relay dies, and the retry (same
// idempotency key) lands on the redundant relay. That relay has never seen
// the request, yet the client receives the original committed response,
// recovered from the ledger, and the ledger holds exactly one valid
// transaction for the request.
func TestExactlyOnceFailoverToSecondRelay(t *testing.T) {
	forEachCommitter(t, testExactlyOnceFailoverToSecondRelay)
}

func testExactlyOnceFailoverToSecondRelay(t *testing.T) {
	w, relayB := buildExactlyOnceWorld(t)
	client, err := core.NewClient(w.SWT, wetrade.SellerBankOrg, "eo-client")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	spec := core.RemoteQuerySpec{
		Network: tradelens.NetworkID, Contract: "auditcc", Function: "Append",
		Args:      [][]byte{[]byte("po-9001"), []byte("shipped;")},
		RequestID: "eo-failover-1",
	}
	first, err := client.RemoteInvoke(context.Background(), spec)
	if err != nil {
		t.Fatalf("first RemoteInvoke: %v", err)
	}

	// The relay that served the commit goes down; the requester retries the
	// ambiguous outcome with the same idempotency key.
	w.Hub.SetDown(STLRelayAddr, true)
	retry, err := client.RemoteInvoke(context.Background(), spec)
	if err != nil {
		t.Fatalf("retry RemoteInvoke after failover: %v", err)
	}

	if !bytes.Equal(first.Result, retry.Result) {
		t.Fatalf("failover retry result %q != original %q", retry.Result, first.Result)
	}
	valid, _ := committedInvokes(t, w, invokeTxID("eo-failover-1", client.Identity().CertPEM()))
	if valid != 1 {
		t.Fatalf("ledger holds %d valid commits for the request, want exactly 1", valid)
	}
	if got, _ := w.STLAdmin.Evaluate("auditcc", "Read", []byte("po-9001")); !bytes.Equal(got, []byte("shipped;")) {
		t.Fatalf("source state = %q, want single append", got)
	}
	// The second relay answered from the ledger, not by executing.
	stats := relayB.Stats()
	if stats.InvokeReplays != 1 {
		t.Fatalf("relay B InvokeReplays = %d, want 1", stats.InvokeReplays)
	}
	if stats.InvokesServed != 0 {
		t.Fatalf("relay B InvokesServed = %d, want 0 (must not re-execute)", stats.InvokesServed)
	}
}

// rawInvoker issues invokes directly against named source relays, holding
// its own key so it can decrypt responses. It stands in for a destination
// relay pinned to one source address — the tool for racing the same
// logical request through both redundant relays at once.
type rawInvoker struct {
	key     *ecdsa.PrivateKey
	certPEM []byte
}

func newRawInvoker(t *testing.T, w *TradeWorld) *rawInvoker {
	t.Helper()
	org, err := w.SWT.Fabric.Org(wetrade.SellerBankOrg)
	if err != nil {
		t.Fatalf("Org: %v", err)
	}
	key, err := cryptoutil.GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	cert, err := org.CA.IssueForKey("eo-raw-client", msp.RoleClient, &key.PublicKey)
	if err != nil {
		t.Fatalf("IssueForKey: %v", err)
	}
	id := &msp.Identity{Name: "eo-raw-client", OrgID: wetrade.SellerBankOrg, Role: msp.RoleClient, Cert: cert, Key: key}
	return &rawInvoker{key: key, certPEM: id.CertPEM()}
}

// query builds the wire query for one Append invoke under a fixed request
// ID and nonce (both attempts of a retry must present the same nonce or
// the replayed proof would not verify).
func (ri *rawInvoker) query(requestID string, nonce []byte, logKey, entry string) *wire.Query {
	return &wire.Query{
		RequestID:         requestID,
		RequestingNetwork: wetrade.NetworkID,
		TargetNetwork:     tradelens.NetworkID,
		Ledger:            "default",
		Contract:          "auditcc",
		Function:          "Append",
		Args:              [][]byte{[]byte(logKey), []byte(entry)},
		PolicyExpr:        stlPolicyExpr(),
		RequesterCertPEM:  ri.certPEM,
		RequesterOrg:      wetrade.SellerBankOrg,
		Nonce:             nonce,
	}
}

// open decrypts and returns the plaintext result of a response.
func (ri *rawInvoker) open(t *testing.T, q *wire.Query, resp *wire.QueryResponse) []byte {
	t.Helper()
	if resp.Error != "" {
		t.Fatalf("response error: %s", resp.Error)
	}
	bundle, err := proof.OpenResponse(cryptoutil.NewRecipient(ri.key), q, resp)
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}
	return bundle.Result
}

// TestExactlyOnceConcurrentRelays races the same logical invoke through
// both STL relays at once — the worst case for process-local dedup, since
// neither relay's in-flight claim can see the other's attempt. The
// two submissions may land in successive blocks or, by group commit, in
// one; either way the duplicate check (chain index or in-block guard)
// collapses the race: exactly one transaction commits as valid, and both
// relays return that committed response.
func TestExactlyOnceConcurrentRelays(t *testing.T) {
	forEachCommitter(t, testExactlyOnceConcurrentRelays)
}

func testExactlyOnceConcurrentRelays(t *testing.T) {
	w, relayB := buildExactlyOnceWorld(t)
	relayA := w.STL.Relay
	ri := newRawInvoker(t, w)
	nonce, err := cryptoutil.NewNonce()
	if err != nil {
		t.Fatalf("NewNonce: %v", err)
	}

	type outcome struct {
		resp *wire.QueryResponse
		err  error
	}
	results := make([]outcome, 2)
	queries := []*wire.Query{
		ri.query("eo-race-1", nonce, "po-9002", "booked;"),
		ri.query("eo-race-1", nonce, "po-9002", "booked;"),
	}
	var wg sync.WaitGroup
	for i, r := range []*relay.Relay{relayA, relayB} {
		wg.Add(1)
		go func(i int, r *relay.Relay) {
			defer wg.Done()
			resp, err := r.Invoke(context.Background(), queries[i])
			results[i] = outcome{resp: resp, err: err}
		}(i, r)
	}
	wg.Wait()

	var plaintexts [][]byte
	for i, out := range results {
		if out.err != nil {
			t.Fatalf("relay %d Invoke: %v", i, out.err)
		}
		plaintexts = append(plaintexts, ri.open(t, queries[i], out.resp))
	}
	if !bytes.Equal(plaintexts[0], plaintexts[1]) {
		t.Fatalf("relays returned divergent responses: %q vs %q", plaintexts[0], plaintexts[1])
	}
	if !bytes.Equal(plaintexts[0], []byte("booked;")) {
		t.Fatalf("response = %q, want single append", plaintexts[0])
	}
	valid, _ := committedInvokes(t, w, invokeTxID("eo-race-1", ri.certPEM))
	if valid != 1 {
		t.Fatalf("ledger holds %d valid commits for the raced request, want exactly 1", valid)
	}
	// Exactly one of the two relays lost the commit race and served its
	// caller from the ledger's record; the duplicate is visible in stats.
	if replays := relayA.Stats().InvokeReplays + relayB.Stats().InvokeReplays; replays != 1 {
		t.Fatalf("combined InvokeReplays = %d, want 1 (the race loser's ledger replay)", replays)
	}
	if got, _ := w.STLAdmin.Evaluate("auditcc", "Read", []byte("po-9002")); !bytes.Equal(got, []byte("booked;")) {
		t.Fatalf("source state = %q, want single append", got)
	}
}

// TestExactlyOnceEdgeFailoverNeverDuplicates: a destination edge relay
// delivers an invoke at most once, and when its first address dies
// mid-sequence, the failover retry is answered from the ledger. The client
// gets availability without a double commit.
func TestExactlyOnceEdgeFailoverNeverDuplicates(t *testing.T) {
	forEachCommitter(t, testExactlyOnceEdgeFailoverNeverDuplicates)
}

func testExactlyOnceEdgeFailoverNeverDuplicates(t *testing.T) {
	w, _ := buildExactlyOnceWorld(t)
	ri := newRawInvoker(t, w)
	nonce, err := cryptoutil.NewNonce()
	if err != nil {
		t.Fatalf("NewNonce: %v", err)
	}
	// An edge relay with no local drivers: pure client-side fan-out.
	edge := relay.New("swt-edge", w.Registry, w.Hub)

	q1 := ri.query("eo-edge-1", nonce, "po-9003", "gated-in;")
	resp1, err := edge.Invoke(context.Background(), q1)
	if err != nil {
		t.Fatalf("first Invoke: %v", err)
	}
	first := ri.open(t, q1, resp1)

	w.Hub.SetDown(STLRelayAddr, true)
	q2 := ri.query("eo-edge-1", nonce, "po-9003", "gated-in;")
	resp2, err := edge.Invoke(context.Background(), q2)
	if err != nil {
		t.Fatalf("failover Invoke: %v", err)
	}
	retry := ri.open(t, q2, resp2)

	if !bytes.Equal(first, retry) {
		t.Fatalf("failover result %q != original %q", retry, first)
	}
	valid, _ := committedInvokes(t, w, invokeTxID("eo-edge-1", ri.certPEM))
	if valid != 1 {
		t.Fatalf("ledger holds %d valid commits, want exactly 1", valid)
	}
}

// TestDistinctRequestersMaySameRequestID: request IDs are scoped to the
// requester (network + certificate), so one requester committing under an
// idempotency key neither blocks nor leaks into a different requester's
// invoke that happens to choose the same key. Each commits independently.
func TestDistinctRequestersMaySameRequestID(t *testing.T) {
	forEachCommitter(t, testDistinctRequestersMaySameRequestID)
}

func testDistinctRequestersMaySameRequestID(t *testing.T) {
	w, _ := buildExactlyOnceWorld(t)
	alice := newRawInvoker(t, w)
	bob := newRawInvoker(t, w)
	nonceA, _ := cryptoutil.NewNonce()
	nonceB, _ := cryptoutil.NewNonce()

	qA := alice.query("order-123", nonceA, "po-9004", "alice;")
	respA, err := w.STL.Relay.Invoke(context.Background(), qA)
	if err != nil {
		t.Fatalf("alice Invoke: %v", err)
	}
	qB := bob.query("order-123", nonceB, "po-9004", "bob;")
	respB, err := w.STL.Relay.Invoke(context.Background(), qB)
	if err != nil {
		t.Fatalf("bob Invoke (same request ID, different requester): %v", err)
	}
	if got := alice.open(t, qA, respA); !bytes.Equal(got, []byte("alice;")) {
		t.Fatalf("alice result = %q", got)
	}
	if got := bob.open(t, qB, respB); !bytes.Equal(got, []byte("alice;bob;")) {
		t.Fatalf("bob result = %q, want his own append, not a replay of alice's", got)
	}
	for who, cert := range map[string][]byte{"alice": alice.certPEM, "bob": bob.certPEM} {
		if valid, _ := committedInvokes(t, w, invokeTxID("order-123", cert)); valid != 1 {
			t.Fatalf("%s has %d valid commits, want 1", who, valid)
		}
	}
}

// TestIdempotencyKeyReuseWithDifferentRequestRefused: replaying a
// committed outcome under a *different* question would mint a proof the
// ledger never answered. A requester that reuses its idempotency key with
// different arguments gets an error — never silently stale data — and the
// original commit stays untouched.
func TestIdempotencyKeyReuseWithDifferentRequestRefused(t *testing.T) {
	forEachCommitter(t, testIdempotencyKeyReuseWithDifferentRequestRefused)
}

func testIdempotencyKeyReuseWithDifferentRequestRefused(t *testing.T) {
	w, _ := buildExactlyOnceWorld(t)
	ri := newRawInvoker(t, w)
	nonce, _ := cryptoutil.NewNonce()
	sendTo := func(addr string, q *wire.Query) *wire.Envelope {
		t.Helper()
		env := &wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgInvoke, RequestID: q.RequestID, Payload: q.Marshal()}
		reply, err := w.Hub.Send(context.Background(), addr, env)
		if err != nil {
			t.Fatalf("Send to %s: %v", addr, err)
		}
		return reply
	}

	// Original served by relay A.
	q1 := ri.query("eo-reuse-1", nonce, "po-9005", "real-entry;")
	reply := sendTo(STLRelayAddr, q1)
	if reply.Type != wire.MsgQueryResponse {
		t.Fatalf("original reply = %s (%s)", reply.Type, reply.Payload)
	}

	// Reuse against relay A, which committed the original: refused out of
	// the ledger record, as on any relay.
	q2 := ri.query("eo-reuse-1", nonce, "po-9005", "DIFFERENT-entry;")
	if reply := sendTo(STLRelayAddr, q2); reply.Type != wire.MsgError {
		t.Fatalf("relay A key reuse reply = %s, want error", reply.Type)
	}
	// Reuse against relay B, which never saw the original: refused the same.
	if reply := sendTo(STLRelayAddrB, q2); reply.Type != wire.MsgError {
		t.Fatalf("relay B key reuse reply = %s, want error", reply.Type)
	}
	// And a duplicate aimed at a ledger the driver does not serve is
	// refused too, on either relay, rather than answered from the one it
	// does serve.
	q3 := ri.query("eo-reuse-1", nonce, "po-9005", "real-entry;")
	q3.Ledger = "bogus-ledger"
	reply3 := sendTo(STLRelayAddrB, q3)
	if reply3.Type == wire.MsgQueryResponse {
		// Driver-level refusals travel as application errors inside the
		// response; either way the requester must get an error, never the
		// committed payload re-bound to the wrong ledger.
		resp3, err := wire.UnmarshalQueryResponse(reply3.Payload)
		if err != nil {
			t.Fatalf("unmarshal wrong-ledger reply: %v", err)
		}
		if resp3.Error == "" {
			t.Fatalf("wrong-ledger duplicate served a committed response: %+v", resp3)
		}
	} else if reply3.Type != wire.MsgError {
		t.Fatalf("wrong-ledger duplicate reply = %s, want an error", reply3.Type)
	}
	// The wrong-ledger refusal must not block the requester's legitimate
	// retry.
	if reply := sendTo(STLRelayAddrB, q1); reply.Type != wire.MsgQueryResponse {
		t.Fatalf("legitimate retry after wrong-ledger refusal = %s (%s)", reply.Type, reply.Payload)
	}

	if got, _ := w.STLAdmin.Evaluate("auditcc", "Read", []byte("po-9005")); !bytes.Equal(got, []byte("real-entry;")) {
		t.Fatalf("source state = %q, want only the original append", got)
	}
	if valid, _ := committedInvokes(t, w, invokeTxID("eo-reuse-1", ri.certPEM)); valid != 1 {
		t.Fatalf("valid commits = %d, want 1", valid)
	}
}
