package core

import (
	"context"
	"fmt"
	"testing"
)

// TestSessionedECDHAmortizedAcrossQueries is the amortization claim end to
// end: distinct cold queries from one persistent client agree ECDH once
// per (attestor, requester) pair — plus once for the result envelope's
// dedicated manager — and every later query seals under cached secrets.
// Classic ECIES would pay (attestors+1) fresh agreements per query.
func TestSessionedECDHAmortizedAcrossQueries(t *testing.T) {
	const queries = 4
	w := buildWorld(t)
	for i := 0; i < queries; i++ {
		if _, err := w.srcAdmin.Submit("sourceCC", "Put", []byte(fmt.Sprintf("bl-amort-%d", i)), []byte("doc")); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	client, err := NewClient(w.dest, "seller-bank-org", "persistent-poller")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	for i := 0; i < queries; i++ {
		if _, err := client.RemoteQuery(context.Background(), RemoteQuerySpec{
			Network: "source-net", Contract: "sourceCC", Function: "Get",
			Args: [][]byte{[]byte(fmt.Sprintf("bl-amort-%d", i))},
		}); err != nil {
			t.Fatalf("RemoteQuery %d: %v", i, err)
		}
	}
	ecdh, sign, encrypt := w.source.Driver.CryptoOps()
	// 2 attestor managers + 1 result manager, one agreement each for the
	// single requester label; warm thereafter.
	if ecdh != 3 {
		t.Fatalf("ECDH agreements across %d sessioned queries = %d, want 3", queries, ecdh)
	}
	// Signatures stay per-query per-attestor (batching not armed here), and
	// every envelope still pays its AEAD seal.
	if sign != queries*2 {
		t.Fatalf("signatures = %d, want %d", sign, queries*2)
	}
	if encrypt != queries*3 {
		t.Fatalf("envelope seals = %d, want %d", encrypt, queries*3)
	}
}

// TestSessionedCertRotationFreshAgreement drives certificate rotation
// through the driver: the session label is the requester certificate
// digest, so the same human behind a renewed certificate gets a fresh
// ECDH agreement instead of a secret silently reused across identities.
func TestSessionedCertRotationFreshAgreement(t *testing.T) {
	w := buildWorld(t)
	if _, err := w.srcAdmin.Submit("sourceCC", "Put", []byte("bl-rotate"), []byte("doc")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	query := func(clientName string) {
		t.Helper()
		client, err := NewClient(w.dest, "seller-bank-org", clientName)
		if err != nil {
			t.Fatalf("NewClient %s: %v", clientName, err)
		}
		if _, err := client.RemoteQuery(context.Background(), RemoteQuerySpec{
			Network: "source-net", Contract: "sourceCC", Function: "Get",
			Args:      [][]byte{[]byte("bl-rotate")},
			RequestID: "rotation-probe-" + clientName,
		}); err != nil {
			t.Fatalf("RemoteQuery %s: %v", clientName, err)
		}
	}
	query("pre-rotation")
	before, _, _ := w.source.Driver.CryptoOps()
	// A distinct certificate for the same org member: new label, and the
	// driver must agree afresh for every manager that seals to it.
	query("post-rotation")
	after, _, _ := w.source.Driver.CryptoOps()
	if after-before != 3 {
		t.Fatalf("rotated certificate triggered %d fresh ECDH agreements, want 3", after-before)
	}
}
