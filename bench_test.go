// Top-level benchmark harness: one benchmark per experiment in
// EXPERIMENTS.md (E1-E7 map the paper's figures and evaluation claims;
// P1-P6 are supplemental performance characterizations the paper's
// industry-track format omits). Run with:
//
//	go test -bench=. -benchmem .
package repro_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps/scenario"
	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/chaincode"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/endorsement"
	"repro/internal/fabric"
	"repro/internal/ledger"
	"repro/internal/msp"
	"repro/internal/orderer"
	"repro/internal/peer"
	"repro/internal/policy"
	"repro/internal/proof"
	"repro/internal/relay"
	"repro/internal/syscc"
	"repro/internal/wire"
)

// ctx is the benchmarks' shared unbounded context; per-benchmark deadlines
// are derived where a bounded budget is the point of the measurement.
var ctx = context.Background()

// coldQueryID survives benchmark reruns at growing b.N so cold-path request
// IDs never repeat within one process (see BenchmarkE7AttestationCache).
var coldQueryID atomic.Uint64

// assembleOne builds a single-endorsement transaction for the batching
// ablation.
func assembleOne(inv chaincode.Invocation, resp *peer.ProposalResponse) (*ledger.Transaction, error) {
	return peer.AssembleTransaction(inv, []*peer.ProposalResponse{resp})
}

// policyFor is the verification policy used by the payload-size sweep.
func policyFor(network string) policy.VerificationPolicy {
	return policy.VerificationPolicy{Network: network, Expr: "AND('org-a.peer','org-b.peer')"}
}

// accessFor is the access rule used by the payload-size sweep.
func accessFor() policy.AccessRule {
	return policy.AccessRule{Network: "dst", Org: "dst-org", Chaincode: "data", Function: "Get"}
}

// tradeWorld builds the standard STL/SWT world with a committed B/L.
func tradeWorld(b *testing.B) (*scenario.TradeWorld, *scenario.Actors) {
	b.Helper()
	w, err := scenario.Build()
	if err != nil {
		b.Fatal(err)
	}
	actors, err := w.NewActors()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := actors.STLSeller.CreateShipment(ctx, "po-1001", "S", "B", "goods"); err != nil {
		b.Fatal(err)
	}
	if _, err := actors.STLCarrier.BookShipment(ctx, "po-1001", "C"); err != nil {
		b.Fatal(err)
	}
	if _, err := actors.STLCarrier.RecordGateIn(ctx, "po-1001"); err != nil {
		b.Fatal(err)
	}
	if err := actors.STLCarrier.IssueBillOfLading(ctx, &tradelens.BillOfLading{
		BLID: "bl-1", PORef: "po-1001", Carrier: "C",
	}); err != nil {
		b.Fatal(err)
	}
	return w, actors
}

func blQuerySpec(po string) core.RemoteQuerySpec {
	return core.RemoteQuerySpec{
		Network:  tradelens.NetworkID,
		Contract: tradelens.ChaincodeName,
		Function: tradelens.FnGetBillOfLading,
		Args:     [][]byte{[]byte(po)},
	}
}

// BenchmarkE1EndToEndQuery measures the complete Fig. 2 / Fig. 4 message
// flow: query via relays, proof collection on two organizations, response
// decryption and client-side proof verification.
func BenchmarkE1EndToEndQuery(b *testing.B) {
	_, actors := tradeWorld(b)
	client := actors.SWTSeller.Client()
	spec := blQuerySpec("po-1001")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.RemoteQuery(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1TracedQuery is E1 with every query traced
// (RemoteQuerySpec.Trace): against E1 it prices the spans — a recorder
// per relay, a clock read per stage and the spans on the reply envelope.
func BenchmarkE1TracedQuery(b *testing.B) {
	_, actors := tradeWorld(b)
	client := actors.SWTSeller.Client()
	spec := blQuerySpec("po-1001")
	spec.Trace = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.RemoteQuery(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2EncryptionOverhead isolates the confidentiality cost the
// paper's design pays so untrusted relays learn nothing: a full attestation
// (sign + seal metadata + seal result) versus the bare signature an
// encryption-free design would use. The cold arm builds with a fresh
// Builder every time, so each envelope pays a session keygen plus ECDH
// agreement — what per-query ECIES costs; the warm arm reuses one builder,
// the steady state of a requester that queries again within a session. The
// two open arms are the requester's half of the same cost: opening the
// response's two envelopes through a fresh Recipient per op (an agreement
// per envelope, what a one-shot client pays) or through one Recipient that
// already remembers both session points (one HKDF expand plus one AEAD open
// per envelope).
func BenchmarkE2EncryptionOverhead(b *testing.B) {
	ca, _ := msp.NewCA("org")
	attestor, _ := ca.Issue("peer0", msp.RolePeer)
	attestors := []*msp.Identity{attestor}
	clientKey, _ := cryptoutil.GenerateKey()
	nonce, _ := cryptoutil.NewNonce()
	q := &wire.Query{TargetNetwork: "net", Ledger: "default", Contract: "cc", Function: "fn", Nonce: nonce, PolicyExpr: "'org'"}
	qd := proof.QueryDigestOf(q)
	result := make([]byte, 4096)
	specs := []proof.Spec{{
		NetworkID: "net", QueryDigest: qd, PolicyDigest: proof.PolicyDigestOf(q), Result: result,
		Nonce: nonce, ClientPub: &clientKey.PublicKey, RequesterLabel: "client", Now: time.Now(),
	}}

	b.Run("attestation-with-encryption-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := proof.NewBuilder(0, nil).Build(ctx, specs, attestors); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("attestation-with-encryption-warm", func(b *testing.B) {
		builder := proof.NewBuilder(time.Hour, nil)
		if _, err := builder.Build(ctx, specs, attestors); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := builder.Build(ctx, specs, attestors); err != nil {
				b.Fatal(err)
			}
		}
	})
	resps, err := proof.NewBuilder(0, nil).Build(ctx, specs, attestors)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("open-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := proof.OpenResponse(cryptoutil.NewRecipient(clientKey), q, resps[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("open-warm", func(b *testing.B) {
		recipient := cryptoutil.NewRecipient(clientKey)
		if _, err := proof.OpenResponse(recipient, q, resps[0]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := proof.OpenResponse(recipient, q, resps[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("signature-only-baseline", func(b *testing.B) {
		md := wire.Metadata{
			NetworkID: "net", PeerName: attestor.Name, OrgID: attestor.OrgID,
			QueryDigest: qd, ResultDigest: cryptoutil.Digest(result), Nonce: nonce,
		}
		plain := md.Marshal()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cryptoutil.SignDigest(attestor.Key, cryptoutil.Digest(plain)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE3ProofValidation measures the destination-side Data Acceptance
// check (signature verification, certificate chains, policy evaluation) as
// the attestor count grows. "fresh" validates a proof the process has not
// seen, so each attestor signature costs one ECDSA verify; "repeat"
// validates the same proof again, and msp.VerifySignature remembers its
// signatures.
func BenchmarkE3ProofValidation(b *testing.B) {
	for _, attestors := range []int{1, 2, 4, 8} {
		identities := make([]*msp.Identity, attestors)
		roots := make(map[string][]byte, attestors)
		policyExpr := ""
		for i := 0; i < attestors; i++ {
			org := fmt.Sprintf("org-%d", i)
			ca, _ := msp.NewCA(org)
			identities[i], _ = ca.Issue(org+"-peer0", msp.RolePeer)
			roots[org] = ca.RootCertPEM()
			if i > 0 {
				policyExpr += ","
			}
			policyExpr += "'" + org + "'"
		}
		if attestors > 1 {
			policyExpr = "AND(" + policyExpr + ")"
		}
		verifier, _ := msp.NewVerifier(roots)
		vp := endorsement.MustParse(policyExpr)
		pin := proof.PolicyDigest(policyExpr)
		// build returns a proof over a fresh nonce, so its signatures are new.
		build := func(b *testing.B) (*proof.Bundle, []byte) {
			clientKey, _ := cryptoutil.GenerateKey()
			nonce, _ := cryptoutil.NewNonce()
			q := &wire.Query{TargetNetwork: "net", Ledger: "default", Contract: "cc", Function: "fn", Nonce: nonce, PolicyExpr: policyExpr}
			qd := proof.QueryDigestOf(q)
			resps, err := proof.NewBuilder(0, nil).Build(ctx, []proof.Spec{{
				NetworkID: "net", QueryDigest: qd, PolicyDigest: pin, Result: make([]byte, 4096),
				Nonce: nonce, ClientPub: &clientKey.PublicKey, Now: time.Now(),
			}}, identities)
			if err != nil {
				b.Fatal(err)
			}
			bundle, err := proof.OpenResponse(cryptoutil.NewRecipient(clientKey), q, resps[0])
			if err != nil {
				b.Fatal(err)
			}
			return bundle, qd
		}
		verify := func(b *testing.B, bundle *proof.Bundle, qd []byte) {
			if err := proof.Verify(bundle, verifier, vp, qd, pin); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("attestors-%d/fresh", attestors), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bundle, qd := build(b)
				b.StartTimer()
				verify(b, bundle, qd)
			}
		})
		b.Run(fmt.Sprintf("attestors-%d/repeat", attestors), func(b *testing.B) {
			bundle, qd := build(b)
			verify(b, bundle, qd)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				verify(b, bundle, qd)
			}
		})
	}
}

// BenchmarkE4FailoverLatency compares a query served by the primary relay
// against one that must fail over to a standby after the primary is down —
// the cost of the paper's relay-redundancy availability mitigation. With
// health-aware discovery that cost is paid once, not per query: the dead
// primary is demoted after its first failed attempt, so the steady-state
// failover number converges on the primary-up number.
func BenchmarkE4FailoverLatency(b *testing.B) {
	build := func(b *testing.B, primaryDown bool) (*core.Client, core.RemoteQuerySpec) {
		hub := relay.NewHub()
		registry := relay.NewStaticRegistry()
		w, err := scenario.BuildWith(registry, hub)
		if err != nil {
			b.Fatal(err)
		}
		hub.Attach("primary", w.STL.Relay)
		hub.Attach("standby", w.STL.Relay)
		registry.Register(tradelens.NetworkID, "primary", "standby")
		hub.Attach(scenario.SWTRelayAddr, w.SWT.Relay)
		registry.Register(wetrade.NetworkID, scenario.SWTRelayAddr)
		actors, err := w.NewActors()
		if err != nil {
			b.Fatal(err)
		}
		_, _ = actors.STLSeller.CreateShipment(ctx, "po-1001", "S", "B", "g")
		_, _ = actors.STLCarrier.BookShipment(ctx, "po-1001", "C")
		_, _ = actors.STLCarrier.RecordGateIn(ctx, "po-1001")
		_ = actors.STLCarrier.IssueBillOfLading(ctx, &tradelens.BillOfLading{BLID: "bl-1", PORef: "po-1001", Carrier: "C"})
		hub.SetDown("primary", primaryDown)
		return actors.SWTSeller.Client(), blQuerySpec("po-1001")
	}
	b.Run("primary-up", func(b *testing.B) {
		client, spec := build(b, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.RemoteQuery(ctx, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("failover-to-standby", func(b *testing.B) {
		client, spec := build(b, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.RemoteQuery(ctx, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE6CrossPlatformQuery measures the same end-to-end flow with the
// source data on the notary platform, isolating the driver substitution.
func BenchmarkE6CrossPlatformQuery(b *testing.B) {
	w, err := scenario.BuildCrossPlatform()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.STL.Update("bl/po-1001", 0, []byte(`{"blId":"bl-1","poRef":"po-1001"}`)); err != nil {
		b.Fatal(err)
	}
	seller, err := wetrade.NewSellerApp(w.SWT, "seller")
	if err != nil {
		b.Fatal(err)
	}
	spec := blQuerySpec("po-1001")
	client := seller.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.RemoteQuery(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7TradeLifecycle measures the complete Fig. 3 business flow: 9
// on-ledger transactions across two networks plus the cross-network query.
func BenchmarkE7TradeLifecycle(b *testing.B) {
	w, err := scenario.Build()
	if err != nil {
		b.Fatal(err)
	}
	actors, err := w.NewActors()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		po := fmt.Sprintf("po-%d", i)
		lcID := fmt.Sprintf("lc-%d", i)
		if _, err := actors.STLSeller.CreateShipment(ctx, po, "S", "B", "goods"); err != nil {
			b.Fatal(err)
		}
		lc := &wetrade.LetterOfCredit{LCID: lcID, PORef: po, Buyer: "B", Seller: "S", Amount: 100, Currency: "USD"}
		if _, err := actors.SWTBuyer.RequestLC(ctx, lc); err != nil {
			b.Fatal(err)
		}
		if _, err := actors.SWTBuyer.IssueLC(ctx, lcID); err != nil {
			b.Fatal(err)
		}
		if _, err := actors.SWTSeller.AcceptLC(ctx, lcID); err != nil {
			b.Fatal(err)
		}
		if _, err := actors.STLCarrier.BookShipment(ctx, po, "C"); err != nil {
			b.Fatal(err)
		}
		if _, err := actors.STLCarrier.RecordGateIn(ctx, po); err != nil {
			b.Fatal(err)
		}
		if err := actors.STLCarrier.IssueBillOfLading(ctx, &tradelens.BillOfLading{
			BLID: "bl-" + po, PORef: po, Carrier: "C",
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := actors.SWTSeller.FetchAndUploadBL(ctx, lcID, po); err != nil {
			b.Fatal(err)
		}
		if _, err := actors.SWTSeller.RequestPayment(ctx, lcID); err != nil {
			b.Fatal(err)
		}
		if _, err := actors.SWTBuyer.MakePayment(ctx, lcID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7AttestationCache isolates the relay's content-addressed
// attestation cache on the query hot path. "cold-miss" gives every
// iteration a fresh request ID (fresh nonce, hence a new content address),
// paying the full per-query proof build: one ECDSA signature and one ECIES
// encryption per verification-policy org plus the result encryption.
// "warm-hit" repeats one identical query (pinned request ID, deterministic
// nonce): the priming miss stores its proof, and every timed iteration is
// served it verbatim — zero signatures, zero encryptions — which the
// Stats.AttestationCacheHits assertion at the end enforces. The cache's
// 5-minute TTL outlasts any practical -benchtime.
func BenchmarkE7AttestationCache(b *testing.B) {
	w, actors := tradeWorld(b)
	client := actors.SWTSeller.Client()
	b.Run("cold-miss", func(b *testing.B) {
		spec := blQuerySpec("po-1001")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The counter persists across the framework's reruns of this
			// function, so an ID cached during a smaller-N rerun can never
			// be served from the cache inside the "cold" loop.
			spec.RequestID = fmt.Sprintf("bench-cold-%d", coldQueryID.Add(1))
			if _, err := client.RemoteQuery(ctx, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-hit", func(b *testing.B) {
		spec := blQuerySpec("po-1001")
		spec.RequestID = "bench-warm"
		if _, err := client.RemoteQuery(ctx, spec); err != nil {
			b.Fatal(err)
		}
		before := w.STL.Relay.Stats().AttestationCacheHits
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.RemoteQuery(ctx, spec); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if hits := w.STL.Relay.Stats().AttestationCacheHits - before; hits < uint64(b.N) {
			b.Fatalf("warm run hit the cache %d times, want >= %d", hits, b.N)
		}
	})
}

// BenchmarkE8BatchedAttestation sweeps the Merkle-batching window width on
// the cold query path: each iteration fires `width` concurrent cold
// queries (fresh request IDs, so the attestation cache never helps) with
// the driver's window sized to flush exactly when all of them are pending.
// Every attestor signs once per window regardless of width, so the
// reported ns/query falls as the window fills, while window-1 — one query
// at a time, which the batcher builds inline once its first window has
// closed alone — pays one ECDSA signature per attestor per query. Each
// client still verifies its own leaf + inclusion proof end to end.
func BenchmarkE8BatchedAttestation(b *testing.B) {
	w, actors := tradeWorld(b)
	client := actors.SWTSeller.Client()
	for _, width := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("window-%d", width), func(b *testing.B) {
			// maxPending = width: the window flushes the instant the last
			// concurrent query arrives, so the sweep measures batching, not
			// the timer (the generous 50ms window is a straggler backstop,
			// never the steady state). The deferred call restores the
			// driver's default window and width.
			w.STL.Driver.ConfigureAttestationBatching(50*time.Millisecond, width)
			defer w.STL.Driver.ConfigureAttestationBatching(0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make([]error, width)
				sizes := make([]uint64, width)
				for q := 0; q < width; q++ {
					wg.Add(1)
					go func(q int) {
						defer wg.Done()
						spec := blQuerySpec("po-1001")
						spec.RequestID = fmt.Sprintf("bench-e8-%d", coldQueryID.Add(1))
						data, err := client.RemoteQuery(ctx, spec)
						if err != nil {
							errs[q] = err
							return
						}
						sizes[q] = data.Bundle.Elements[0].BatchSize
					}(q)
				}
				wg.Wait()
				for q := 0; q < width; q++ {
					if errs[q] != nil {
						b.Fatal(errs[q])
					}
					if width > 1 && sizes[q] < 2 {
						b.Fatalf("query %d served un-batched (batch size %d) at width %d", q, sizes[q], width)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/query")
		})
	}
}

// BenchmarkE9SessionedECIES measures ECIES amortization on the batched
// cold-query path. Each iteration fires `width` concurrent cold queries
// through one Merkle window (as in E8) and the sweep compares two session
// states on the same driver:
//
//   - session-cold: every window comes from a requester identity the driver
//     has never seen, so each window pays (attestors+1) agreements, amortized
//     to (attestors+1)/width per query. Per-query ECIES would pay
//     attestors+1 per query.
//   - session-warm: one long-lived requester — the warm-poller steady
//     state, where every window after the first seals under cached secrets
//     and ECDH per query goes to ~0.
//
// ecdh/query is measured from the driver's own crypto-op counters, not
// modeled.
func BenchmarkE9SessionedECIES(b *testing.B) {
	w, _ := tradeWorld(b)
	for _, width := range []int{8, 64} {
		for _, mode := range []string{"session-cold", "session-warm"} {
			b.Run(fmt.Sprintf("window-%d/%s", width, mode), func(b *testing.B) {
				// maxPending = width: windows flush when full, the 50ms
				// timer is only a straggler backstop; the deferred call
				// restores the default window (see E8).
				w.STL.Driver.ConfigureAttestationBatching(50*time.Millisecond, width)
				defer w.STL.Driver.ConfigureAttestationBatching(0, 0)

				newClient := func() *core.Client {
					actors, err := w.NewActors()
					if err != nil {
						b.Fatal(err)
					}
					return actors.SWTSeller.Client()
				}
				runWindow := func(client *core.Client) {
					var wg sync.WaitGroup
					errs := make([]error, width)
					for q := 0; q < width; q++ {
						wg.Add(1)
						go func(q int) {
							defer wg.Done()
							spec := blQuerySpec("po-1001")
							spec.RequestID = fmt.Sprintf("bench-e9-%d", coldQueryID.Add(1))
							_, errs[q] = client.RemoteQuery(ctx, spec)
						}(q)
					}
					wg.Wait()
					for q := 0; q < width; q++ {
						if errs[q] != nil {
							b.Fatal(errs[q])
						}
					}
				}
				client := newClient()
				if mode == "session-warm" {
					// Pay the one-time agreements outside the measurement:
					// the steady state being measured is the warm poller.
					runWindow(client)
				}
				ecdhBefore, _, _ := w.STL.Driver.CryptoOps()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "session-cold" && i > 0 {
						// A new certificate is a new session label: this
						// window is the first one its requester ever hit.
						b.StopTimer()
						client = newClient()
						b.StartTimer()
					}
					runWindow(client)
				}
				b.StopTimer()
				ecdhAfter, _, _ := w.STL.Driver.CryptoOps()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/query")
				b.ReportMetric(float64(ecdhAfter-ecdhBefore)/float64(b.N*width), "ecdh/query")
			})
		}
	}
}

// BenchmarkE10MultiHop sweeps the query hop depth over the TCP relay
// chain: hops-1 is the direct two-network deployment (no forwarding hub, no
// hop pins), hops-2 routes through one intermediate hub network, hops-3
// through two. Each added hop pays one more TCP round trip plus the hop-pin
// work — the hub verifies the downstream chain and signs its own pin, the
// origin verifies one more pin — so the per-hop increment isolates the cost
// of the chained path authentication.
func BenchmarkE10MultiHop(b *testing.B) {
	for hubs := 0; hubs <= 2; hubs++ {
		b.Run(fmt.Sprintf("hops-%d", hubs+1), func(b *testing.B) {
			d, err := scenario.BuildTCPChain(hubs, 1)
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			actors, err := d.World.NewActors()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := actors.STLSeller.CreateShipment(ctx, "po-1001", "S", "B", "goods"); err != nil {
				b.Fatal(err)
			}
			if _, err := actors.STLCarrier.BookShipment(ctx, "po-1001", "C"); err != nil {
				b.Fatal(err)
			}
			if _, err := actors.STLCarrier.RecordGateIn(ctx, "po-1001"); err != nil {
				b.Fatal(err)
			}
			if err := actors.STLCarrier.IssueBillOfLading(ctx, &tradelens.BillOfLading{
				BLID: "bl-1", PORef: "po-1001", Carrier: "C",
			}); err != nil {
				b.Fatal(err)
			}
			client, err := core.NewClient(d.World.SWT, wetrade.SellerBankOrg, "bench-e10")
			if err != nil {
				b.Fatal(err)
			}
			spec := blQuerySpec("po-1001")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, err := client.RemoteQuery(ctx, spec)
				if err != nil {
					b.Fatal(err)
				}
				if len(data.Path) != hubs {
					b.Fatalf("verified path %v, want %d hops", data.Path, hubs)
				}
			}
		})
	}
}

// BenchmarkP1WireCodec measures the network-neutral protocol codec.
func BenchmarkP1WireCodec(b *testing.B) {
	q := &wire.Query{
		RequestID: "req", RequestingNetwork: "we-trade", TargetNetwork: "tradelens",
		Ledger: "default", Contract: "TradeLensCC", Function: "GetBillOfLading",
		Args: [][]byte{[]byte("po-1001")}, PolicyExpr: "AND('a','b')",
		RequesterCertPEM: make([]byte, 800), Nonce: make([]byte, 24),
	}
	buf := q.Marshal()
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = q.Marshal()
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.UnmarshalQuery(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkP2ProofGeneration measures source-side proof generation as the
// attestor count grows (proof size scales linearly with the verification
// policy's breadth): one lone query's proof per iteration, built by a
// long-lived Builder as a driver builds it.
func BenchmarkP2ProofGeneration(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("attestors-%d", n), func(b *testing.B) {
			identities := make([]*msp.Identity, n)
			for i := range identities {
				ca, _ := msp.NewCA(fmt.Sprintf("org-%d", i))
				identities[i], _ = ca.Issue("peer0", msp.RolePeer)
			}
			clientKey, _ := cryptoutil.GenerateKey()
			nonce, _ := cryptoutil.NewNonce()
			specs := []proof.Spec{{
				NetworkID: "net", QueryDigest: proof.QueryDigest("net", "default", "cc", "fn", nil, nonce),
				PolicyDigest: proof.PolicyDigest("'org-0'"), Result: make([]byte, 4096), Nonce: nonce,
				ClientPub: &clientKey.PublicKey, RequesterLabel: "client", Now: time.Now(),
			}}
			builder := proof.NewBuilder(0, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := builder.Build(ctx, specs, identities); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP3PolicyEvaluation measures verification-policy evaluation as
// expressions widen.
func BenchmarkP3PolicyEvaluation(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("orgs-%d", n), func(b *testing.B) {
			expr := ""
			signers := make([]endorsement.Principal, n)
			for i := 0; i < n; i++ {
				if i > 0 {
					expr += ","
				}
				expr += fmt.Sprintf("'org-%d'", i)
				signers[i] = endorsement.Principal{OrgID: fmt.Sprintf("org-%d", i), Role: msp.RolePeer}
			}
			p := endorsement.MustParse("AND(" + expr + ")")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !p.Satisfied(signers) {
					b.Fatal("unsatisfied")
				}
			}
		})
	}
}

// BenchmarkP4CommitThroughput is the commit-path ablation. The batch-N
// sub-benchmarks sweep the orderer's batch size under one Submit caller
// (the original block-batching ablation); the concurrent sub-benchmark runs
// the default network under 32 SubmitWait callers on a conflict-free
// workload, where group commit lets callers share blocks (tx/block) and
// multi-transaction blocks apply their write sets level by level.
func BenchmarkP4CommitThroughput(b *testing.B) {
	deployKV := func(b *testing.B, n *fabric.Network) (*fabric.Gateway, []*peer.Peer) {
		b.Helper()
		if _, err := n.AddOrg("org", 1); err != nil {
			b.Fatal(err)
		}
		if err := n.Deploy("kv", chaincode.Func(func(stub chaincode.Stub) ([]byte, error) {
			return nil, stub.PutState(string(stub.Args()[0]), stub.Args()[1])
		}), "'org'"); err != nil {
			b.Fatal(err)
		}
		org, _ := n.Org("org")
		client, err := org.CA.Issue("c", msp.RoleClient)
		if err != nil {
			b.Fatal(err)
		}
		peers, _ := n.PeersOf("org")
		return n.Gateway(client), peers
	}

	for _, batch := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			n := fabric.NewNetwork("bench", orderer.Config{BatchSize: batch})
			gw, peers := deployKV(b, n)
			val := make([]byte, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inv := chaincode.Invocation{
					TxID: fmt.Sprintf("tx-%d", i), Chaincode: "kv", Function: "put",
					Args:        [][]byte{[]byte(fmt.Sprintf("k%d", i)), val},
					CreatorCert: gw.Identity().CertPEM(), Timestamp: time.Now(),
				}
				resp, err := peers[0].Endorse(inv)
				if err != nil {
					b.Fatal(err)
				}
				tx, err := assembleOne(inv, resp)
				if err != nil {
					b.Fatal(err)
				}
				if err := n.Orderer().Submit(tx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			_ = n.Orderer().Flush()
		})
	}

	b.Run("concurrent", func(b *testing.B) {
		n := fabric.NewNetwork("bench", orderer.Config{})
		gw, peers := deployKV(b, n)
		val := make([]byte, 256)
		var seq atomic.Uint64
		b.ReportAllocs()
		// Submitters are open-loop clients, not CPU-bound workers: run far
		// more of them than GOMAXPROCS so callers queue behind each block's
		// delivery and share the next one.
		b.SetParallelism(32)
		start := n.Orderer().Height()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				// Fresh key per transaction: conflict-free, so every write
				// set lands on the scheduler's first level.
				i := seq.Add(1)
				inv := chaincode.Invocation{
					TxID: fmt.Sprintf("tx-%d", i), Chaincode: "kv", Function: "put",
					Args:        [][]byte{[]byte(fmt.Sprintf("k%d", i)), val},
					CreatorCert: gw.Identity().CertPEM(), Timestamp: time.Now(),
				}
				resp, err := peers[0].Endorse(inv)
				if err != nil {
					b.Error(err)
					return
				}
				tx, err := assembleOne(inv, resp)
				if err != nil {
					b.Error(err)
					return
				}
				if _, err := n.Orderer().SubmitWait(tx); err != nil {
					b.Error(err)
					return
				}
				if tx.Validation != ledger.Valid {
					b.Errorf("tx-%d validation = %v", i, tx.Validation)
					return
				}
			}
		})
		b.StopTimer()
		if blocks := n.Orderer().Height() - start; blocks > 0 {
			b.ReportMetric(float64(b.N)/float64(blocks), "tx/block")
		}
	})
}

// BenchmarkP5TransportRTT compares the in-process hub against real TCP for
// a fixed ping round-trip.
func BenchmarkP5TransportRTT(b *testing.B) {
	registry := relay.NewStaticRegistry()
	b.Run("in-process", func(b *testing.B) {
		hub := relay.NewHub()
		target := relay.New("net", registry, hub)
		hub.Attach("addr", target)
		probe := relay.New("probe", registry, hub)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := probe.Ping(ctx, "addr"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tcp", func(b *testing.B) {
		transport := &relay.TCPTransport{}
		defer transport.Close()
		target := relay.New("net", registry, transport)
		server, err := relay.NewTCPServer(target, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer server.Close()
		probe := relay.New("probe", registry, transport)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := probe.Ping(ctx, server.Addr()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkP6PayloadSize sweeps the cross-network result size.
func BenchmarkP6PayloadSize(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("result-%dKiB", size>>10), func(b *testing.B) {
			hub := relay.NewHub()
			registry := relay.NewStaticRegistry()
			srcFab := fabric.NewNetwork("src", orderer.Config{BatchSize: 1})
			_, _ = srcFab.AddOrg("org-a", 1)
			_, _ = srcFab.AddOrg("org-b", 1)
			payload := make([]byte, size)
			_ = srcFab.Deploy("data", chaincode.Func(func(stub chaincode.Stub) ([]byte, error) {
				if _, err := syscc.AuthorizeRelayRequest(stub, "data"); err != nil {
					return nil, err
				}
				return payload, nil
			}), "AND('org-a','org-b')")
			src, err := core.EnableInterop(srcFab, registry, hub, core.Options{})
			if err != nil {
				b.Fatal(err)
			}

			destFab := fabric.NewNetwork("dst", orderer.Config{BatchSize: 1})
			_, _ = destFab.AddOrg("dst-org", 1)
			dest, err := core.EnableInterop(destFab, registry, hub, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			hub.Attach("src-relay", src.Relay)
			registry.Register("src", "src-relay")

			srcOrg, _ := srcFab.Org("org-a")
			srcAdminID, _ := srcOrg.CA.Issue("admin", msp.RoleAdmin)
			srcAdmin := srcFab.Gateway(srcAdminID)
			dstOrg, _ := destFab.Org("dst-org")
			dstAdminID, _ := dstOrg.CA.Issue("admin", msp.RoleAdmin)
			dstAdmin := destFab.Gateway(dstAdminID)
			if err := src.ConfigureForeignNetwork(srcAdmin, dest.ExportConfig()); err != nil {
				b.Fatal(err)
			}
			if err := dest.ConfigureForeignNetwork(dstAdmin, src.ExportConfig()); err != nil {
				b.Fatal(err)
			}
			if err := dest.SetVerificationPolicy(dstAdmin, policyFor("src")); err != nil {
				b.Fatal(err)
			}
			if err := src.GrantAccess(srcAdmin, accessFor()); err != nil {
				b.Fatal(err)
			}
			client, err := core.NewClient(dest, "dst-org", "c")
			if err != nil {
				b.Fatal(err)
			}
			spec := core.RemoteQuerySpec{Network: "src", Contract: "data", Function: "Get"}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.RemoteQuery(ctx, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// faultTransport makes one relay address faulty at a time, modelling a
// relay that degrades after it has served: once flip is set, the next
// address sent to becomes the faulty one and the previously faulty one
// recovers. A faulty address holds each send for delay, or until the
// send's context ends; with a zero delay it is hung and never replies.
type faultTransport struct {
	inner  relay.Transport
	delay  time.Duration
	flip   atomic.Bool
	mu     sync.Mutex
	faulty string
}

func (f *faultTransport) Send(ctx context.Context, addr string, env *wire.Envelope) (*wire.Envelope, error) {
	f.mu.Lock()
	if f.flip.CompareAndSwap(true, false) {
		f.faulty = addr
	}
	faulty := addr == f.faulty
	f.mu.Unlock()
	if faulty {
		var wait <-chan time.Time // nil: hung
		if f.delay > 0 {
			wait = time.After(f.delay)
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return f.inner.Send(ctx, addr, env)
}

// buildFanoutWorld assembles a payload-style src/dst pair where the source
// network is fronted by two relay addresses, "src-a" preferred and "src-b"
// standby, which the destination reaches through faults.
func buildFanoutWorld(b *testing.B, faults *faultTransport) (*core.Client, core.RemoteQuerySpec) {
	b.Helper()
	hub := relay.NewHub()
	registry := relay.NewStaticRegistry()
	srcFab := fabric.NewNetwork("src", orderer.Config{BatchSize: 1})
	_, _ = srcFab.AddOrg("org-a", 1)
	_, _ = srcFab.AddOrg("org-b", 1)
	payload := []byte(`{"doc":"bl-77"}`)
	_ = srcFab.Deploy("data", chaincode.Func(func(stub chaincode.Stub) ([]byte, error) {
		if _, err := syscc.AuthorizeRelayRequest(stub, "data"); err != nil {
			return nil, err
		}
		return payload, nil
	}), "AND('org-a','org-b')")
	src, err := core.EnableInterop(srcFab, registry, hub, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	faults.inner = hub
	destFab := fabric.NewNetwork("dst", orderer.Config{BatchSize: 1})
	_, _ = destFab.AddOrg("dst-org", 1)
	dest, err := core.EnableInterop(destFab, registry, faults, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	hub.Attach("src-a", src.Relay)
	hub.Attach("src-b", src.Relay)
	registry.Register("src", "src-a", "src-b")

	srcOrg, _ := srcFab.Org("org-a")
	srcAdminID, _ := srcOrg.CA.Issue("admin", msp.RoleAdmin)
	srcAdmin := srcFab.Gateway(srcAdminID)
	dstOrg, _ := destFab.Org("dst-org")
	dstAdminID, _ := dstOrg.CA.Issue("admin", msp.RoleAdmin)
	dstAdmin := destFab.Gateway(dstAdminID)
	if err := src.ConfigureForeignNetwork(srcAdmin, dest.ExportConfig()); err != nil {
		b.Fatal(err)
	}
	if err := dest.ConfigureForeignNetwork(dstAdmin, src.ExportConfig()); err != nil {
		b.Fatal(err)
	}
	if err := dest.SetVerificationPolicy(dstAdmin, policyFor("src")); err != nil {
		b.Fatal(err)
	}
	if err := src.GrantAccess(srcAdmin, accessFor()); err != nil {
		b.Fatal(err)
	}
	client, err := core.NewClient(dest, "dst-org", "c")
	if err != nil {
		b.Fatal(err)
	}
	return client, core.RemoteQuerySpec{Network: "src", Contract: "data", Function: "Get"}
}

// BenchmarkP7SlowAddressFailover measures queries under a 20ms budget
// against a source fronted by two relay addresses, one of which turns
// faulty every 50 queries: the address the next query tries first becomes
// slow (15ms, alive but slower than its half of the budget) or hung, and
// the previously faulty one recovers. Both addresses answer once before
// the timer starts, so each has a latency history. p50/p99 are over every
// query, failed or not, and failed-ops counts the queries that missed
// their budget.
func BenchmarkP7SlowAddressFailover(b *testing.B) {
	const (
		budget    = 20 * time.Millisecond
		flipEvery = 50
	)
	for _, arm := range []struct {
		name  string
		delay time.Duration
	}{{"slow", 15 * time.Millisecond}, {"hung", 0}} {
		b.Run(arm.name, func(b *testing.B) {
			faults := &faultTransport{delay: arm.delay}
			client, spec := buildFanoutWorld(b, faults)
			for range 2 { // a fresh address sorts first, so these reach one each
				if _, err := client.RemoteQuery(ctx, spec); err != nil {
					b.Fatal(err)
				}
			}
			lat := make([]time.Duration, 0, b.N)
			failed := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%flipEvery == 0 {
					faults.flip.Store(true)
				}
				qctx, cancel := context.WithTimeout(ctx, budget)
				start := time.Now()
				if _, err := client.RemoteQuery(qctx, spec); err != nil {
					failed++
				}
				lat = append(lat, time.Since(start))
				cancel()
			}
			b.StopTimer()
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			b.ReportMetric(float64(lat[len(lat)/2].Microseconds()), "p50-µs")
			b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds()), "p99-µs")
			b.ReportMetric(float64(failed), "failed-ops")
		})
	}
}

// BenchmarkP9RegistryAnnounce measures discovery-registry write throughput
// under the relayd heartbeat pattern: N concurrent announcers (each with
// its own journal instance, like N relayd processes sharing a deployment
// directory) renewing leases in a tight loop. Each renewal appends one O(1)
// record under the flock, and the append that crosses the size threshold
// compacts in-band, so the measured steady state includes the maintenance
// that keeps the journal bounded.
func BenchmarkP9RegistryAnnounce(b *testing.B) {
	const ttl = time.Minute
	for _, announcers := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("announcers-%d", announcers), func(b *testing.B) {
			dir := b.TempDir()
			regs := make([]*relay.JournalRegistry, announcers)
			for i := range regs {
				regs[i] = relay.NewJournalRegistry(filepath.Join(dir, "registry.jsonl"))
			}
			// Pre-register every address so the steady state measures
			// renewals, the heartbeat hot path.
			for i, reg := range regs {
				if err := reg.RegisterLease("bench-net", fmt.Sprintf("10.0.0.%d:9080", i), ttl); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / announcers
			for i := 0; i < announcers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					reg := regs[i]
					addr := fmt.Sprintf("10.0.0.%d:9080", i)
					n := per
					if i == 0 {
						n += b.N % announcers
					}
					for r := 0; r < n; r++ {
						if err := reg.RegisterLease("bench-net", addr, ttl); err != nil {
							b.Error(err)
							return
						}
					}
				}(i)
			}
			wg.Wait()
		})
	}
}
