package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/proof"
	"repro/internal/relay"
)

// committers parameterize proof-carrying scenarios over two GOMAXPROCS
// settings. At one a network checks a block's endorsements on the
// delivering goroutine and each peer applies writes in block order; above
// one the checks run on a pool and a multi-transaction block applies level
// by level, concurrently. The persisted-proof guarantees must hold under
// both.
var committers = []struct {
	name  string
	procs int
}{
	{"serial", 1},
	{"parallel", 4},
}

// forEachCommitter runs a scenario once per commit engine as subtests,
// pinning GOMAXPROCS for the subtest's duration.
func forEachCommitter(t *testing.T, scenario func(t *testing.T)) {
	for _, c := range committers {
		c := c
		t.Run(c.name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(c.procs)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			scenario(t)
		})
	}
}

// TestReplayAfterOrgRemovalServesOriginalBundle is the proof-carrying-
// commits scenario: an invoke commits while the verification-policy peer
// set is whole, an attestor organization is then removed from the source
// network, and a replay through a *different* (cold) relay must still
// return the original policy-satisfying proof — byte for byte, from the
// bundle persisted with the committed transaction — while a fresh request
// under the shrunk peer set fails the policy as it should.
func TestReplayAfterOrgRemovalServesOriginalBundle(t *testing.T) {
	forEachCommitter(t, replayAfterOrgRemovalScenario)
}

func replayAfterOrgRemovalScenario(t *testing.T) {
	w, client := buildInvokeWorld(t)
	spec := RemoteQuerySpec{
		Network: "source-net", Contract: "writable", Function: "Append",
		Args:      [][]byte{[]byte("audit"), []byte("entry-1;")},
		RequestID: "replay-after-removal",
	}
	original, err := client.RemoteInvoke(context.Background(), spec)
	if err != nil {
		t.Fatalf("RemoteInvoke: %v", err)
	}
	if len(original.Bundle.Elements) != 2 {
		t.Fatalf("original attestations = %d, want 2", len(original.Bundle.Elements))
	}
	if len(original.Bundle.PolicyDigest) == 0 || len(original.Bundle.QueryDigest) == 0 {
		t.Fatal("original bundle is not pinned")
	}

	// The sealed proof is durably on the source ledger, next to the
	// interop key.
	peers := w.source.Fabric.AllPeers()
	tx, err := peers[0].Blocks().TxByInteropKey(original.Query.InteropKey())
	if err != nil {
		t.Fatalf("TxByInteropKey: %v", err)
	}
	if len(tx.ProofBundle) == 0 {
		t.Fatal("committed transaction carries no proof bundle")
	}
	sealed, err := proof.UnmarshalSealed(tx.ProofBundle)
	if err != nil {
		t.Fatalf("UnmarshalSealed: %v", err)
	}
	if len(sealed.Attestors) != 2 {
		t.Fatalf("sealed attestors = %v, want 2", sealed.Attestors)
	}

	// A second relay process fronts the source network; a retry routed to
	// it can only answer from the ledger.
	relay2 := relay.New("source-net", w.registry, w.hub)
	driver2 := relay.NewFabricDriver(w.source.Fabric, "default")
	relay2.RegisterDriver("source-net", driver2)
	w.hub.Attach("source-relay-2", relay2)
	if err := w.registry.Deregister("source-net", "source-relay"); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	w.registry.Register("source-net", "source-relay-2")

	// The org change: the carrier organization leaves the source network.
	// The recorded policy AND('seller-org.peer','carrier-org.peer') can no
	// longer be satisfied by any fresh attestation.
	if err := w.source.Fabric.RemoveOrg("carrier-org"); err != nil {
		t.Fatalf("RemoveOrg: %v", err)
	}

	// The idempotent retry lands on the cold relay, which replays the
	// persisted bundle. The proof decrypts to exactly the original one —
	// no re-signing happened, because re-signing is no longer possible.
	replayed, err := client.RemoteInvoke(context.Background(), spec)
	if err != nil {
		t.Fatalf("RemoteInvoke replay: %v", err)
	}
	if !bytes.Equal(replayed.BundleBytes, original.BundleBytes) {
		t.Fatal("replayed bundle differs from the original persisted proof")
	}
	if got := relay2.Stats().InvokeReplays; got != 1 {
		t.Fatalf("InvokeReplays = %d, want 1", got)
	}

	// A fresh request under the shrunk peer set must fail the verification
	// policy rather than hand back a thinner proof.
	_, err = client.RemoteQuery(context.Background(), RemoteQuerySpec{
		Network: "source-net", Contract: "writable", Function: "Read",
		Args: [][]byte{[]byte("audit")},
		// Read carries no relay authorization gate, so the failure below is
		// attributable to the proof policy, not exposure control.
		VerificationPolicy: "AND('seller-org.peer','carrier-org.peer')",
	})
	if err == nil {
		t.Fatal("fresh query under shrunk peer set produced a passing proof")
	}
	if !errors.Is(err, proof.ErrPolicyUnsatisfied) {
		t.Fatalf("fresh query failed with %v, want policy unsatisfied", err)
	}
}

// TestAttestationCacheServesIdenticalQueries drives the relay's
// content-addressed attestation cache end to end: a repeated identical
// query (same request ID, hence same deterministic nonce) is served the
// previously built proof verbatim, counted in Stats, while a valid write
// to the queried namespace invalidates the entry even when it restores an
// identical result.
func TestAttestationCacheServesIdenticalQueries(t *testing.T) {
	w := buildWorld(t)
	if _, err := w.srcAdmin.Submit("sourceCC", "Put", []byte("bl-9"), []byte("doc")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	client, err := NewClient(w.dest, "seller-bank-org", "cached-reader")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	spec := RemoteQuerySpec{
		Network: "source-net", Contract: "sourceCC", Function: "Get",
		Args:      [][]byte{[]byte("bl-9")},
		RequestID: "poll-bl-9", // deterministic nonce => identical repeated query
	}

	// The first query builds a fresh proof (miss) and stores its response;
	// the second and third are verbatim hits.
	if _, err := client.RemoteQuery(context.Background(), spec); err != nil {
		t.Fatalf("RemoteQuery 1: %v", err)
	}
	stored, err := client.RemoteQuery(context.Background(), spec)
	if err != nil {
		t.Fatalf("RemoteQuery 2: %v", err)
	}
	warm, err := client.RemoteQuery(context.Background(), spec)
	if err != nil {
		t.Fatalf("RemoteQuery warm: %v", err)
	}
	stats := w.source.Relay.Stats()
	if stats.AttestationCacheHits != 2 || stats.AttestationCacheJoins != 0 || stats.AttestationCacheMisses != 1 {
		t.Fatalf("cache hits/joins/misses = %d/%d/%d, want 2/0/1",
			stats.AttestationCacheHits, stats.AttestationCacheJoins, stats.AttestationCacheMisses)
	}
	// The warm proof carries the cached artifact's attestations: identical
	// signed metadata, zero new signatures, so both decrypt to the same
	// plaintext bundle bytes.
	if !bytes.Equal(stored.BundleBytes, warm.BundleBytes) {
		t.Fatal("warm response decrypted to a different bundle")
	}

	// A write into the namespace — even one restoring the same value —
	// invalidates the entry: the cache never serves a proof across a write
	// to the data it covers.
	if _, err := w.srcAdmin.Submit("sourceCC", "Put", []byte("bl-9"), []byte("doc")); err != nil {
		t.Fatalf("Put again: %v", err)
	}
	if _, err := client.RemoteQuery(context.Background(), spec); err != nil {
		t.Fatalf("RemoteQuery after write: %v", err)
	}
	stats = w.source.Relay.Stats()
	if stats.AttestationCacheHits != 2 || stats.AttestationCacheJoins != 0 || stats.AttestationCacheMisses != 2 {
		t.Fatalf("after write, cache hits/joins/misses = %d/%d/%d, want 2/0/2",
			stats.AttestationCacheHits, stats.AttestationCacheJoins, stats.AttestationCacheMisses)
	}
}

// TestQueryRefusesMismatchedPolicyPin covers the pinning refusal: a query
// whose explicit policy digest disagrees with the expression it carries is
// refused outright by the source driver.
func TestQueryRefusesMismatchedPolicyPin(t *testing.T) {
	w := buildWorld(t)
	_, _ = w.srcAdmin.Submit("sourceCC", "Put", []byte("k"), []byte("v"))
	client, err := NewClient(w.dest, "seller-bank-org", "pin-prober")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	data, err := client.RemoteQuery(context.Background(), RemoteQuerySpec{
		Network: "source-net", Contract: "sourceCC", Function: "Get",
		Args: [][]byte{[]byte("k")},
	})
	if err != nil {
		t.Fatalf("RemoteQuery: %v", err)
	}
	// Forge the pin on a copy of the sent query and replay it straight at
	// the source relay driver.
	forged := *data.Query
	forged.PolicyDigest = proof.PolicyDigest("OR('someone-else')")
	if _, err := w.source.Driver.Query(context.Background(), &forged); !errors.Is(err, relay.ErrPolicyPinMismatch) {
		t.Fatalf("forged pin got %v, want ErrPolicyPinMismatch", err)
	}
}
