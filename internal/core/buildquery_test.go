package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/proof"
	"repro/internal/wire"
)

var sinkQuery *wire.Query

// TestBuildQueryAllocations: a query is built in one allocation that also
// holds its nonce and policy digest, whose slices are clipped to them; a
// recorded policy adds the gateway evaluation's one (its stub, the views
// of its two arguments inside). Rows may only drop.
func TestBuildQueryAllocations(t *testing.T) {
	w := buildWorld(t)
	client, err := NewClient(w.dest, "seller-bank-org", "c")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	const expr = "AND('seller-org.peer','carrier-org.peer')"
	explicit := RemoteQuerySpec{Network: "source-net", Contract: "sourceCC", Function: "Get", VerificationPolicy: expr}
	idempotent := explicit
	idempotent.RequestID = "retry-7"
	recorded := idempotent
	recorded.VerificationPolicy = ""

	ctx := context.Background()
	for _, spec := range []RemoteQuerySpec{explicit, idempotent, recorded} {
		q, policyExpr, err := client.buildQuery(ctx, spec)
		if err != nil || policyExpr != expr {
			t.Fatalf("buildQuery: %q, %v", policyExpr, err)
		}
		if !bytes.Equal(q.PolicyDigest, proof.PolicyDigest(expr)) || cap(q.PolicyDigest) != cryptoutil.DigestSize {
			t.Fatalf("PolicyDigest %x (cap %d), want %x clipped", q.PolicyDigest, cap(q.PolicyDigest), proof.PolicyDigest(expr))
		}
		if len(q.Nonce) != cryptoutil.NonceSize || cap(q.Nonce) != cryptoutil.NonceSize {
			t.Fatalf("nonce of length %d, cap %d; want %d clipped", len(q.Nonce), cap(q.Nonce), cryptoutil.NonceSize)
		}
		if spec.RequestID != "" {
			var want [cryptoutil.NonceSize]byte
			idempotentNonce(&want, client.key, spec.RequestID)
			if !bytes.Equal(q.Nonce, want[:]) {
				t.Fatalf("nonce %x, want the derived %x", q.Nonce, want)
			}
		}
	}

	for _, row := range []struct {
		name string
		spec RemoteQuerySpec
		max  float64
	}{
		{"fresh nonce, explicit policy", explicit, 1},
		{"idempotent nonce, explicit policy", idempotent, 1},
		{"idempotent nonce, recorded policy", recorded, 2},
	} {
		got := testing.AllocsPerRun(100, func() { sinkQuery, _, _ = client.buildQuery(ctx, row.spec) })
		if got > row.max {
			t.Errorf("buildQuery, %s: %v allocations, want <= %v", row.name, got, row.max)
		} else {
			t.Logf("buildQuery, %s: %v allocations", row.name, got)
		}
	}
}
