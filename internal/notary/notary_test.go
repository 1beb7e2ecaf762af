package notary

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/endorsement"
	"repro/internal/msp"
	"repro/internal/policy"
	"repro/internal/proof"
	"repro/internal/relay"
	"repro/internal/wire"
)

func newNotaryNet(t testing.TB) *Network {
	t.Helper()
	n := NewNetwork("stl-notary")
	for _, org := range []string{"notary-alpha", "notary-beta"} {
		if _, err := n.AddNotary(org); err != nil {
			t.Fatalf("AddNotary: %v", err)
		}
	}
	n.RegisterView("TradeLensCC", "GetBillOfLading", func(vault ReadVault, args [][]byte) ([]byte, error) {
		if len(args) != 1 {
			return nil, errors.New("GetBillOfLading needs poRef")
		}
		return vault.Get("bl/" + string(args[0]))
	})
	return n
}

func TestVaultUpdateAndVersioning(t *testing.T) {
	n := newNotaryNet(t)
	v, err := n.Update("k", 0, []byte("v1"))
	if err != nil || v != 1 {
		t.Fatalf("Update: v=%d err=%v", v, err)
	}
	// Stale expected version is rejected (uniqueness consensus).
	if _, err := n.Update("k", 0, []byte("v2")); !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("stale update: %v", err)
	}
	v, err = n.Update("k", 1, []byte("v2"))
	if err != nil || v != 2 {
		t.Fatalf("second update: v=%d err=%v", v, err)
	}
	data, ver, err := n.Get("k")
	if err != nil || ver != 2 || !bytes.Equal(data, []byte("v2")) {
		t.Fatalf("Get: %q v=%d err=%v", data, ver, err)
	}
	if _, _, err := n.Get("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent: %v", err)
	}
}

func TestViewFunctions(t *testing.T) {
	n := newNotaryNet(t)
	if _, err := n.Update("bl/po-1", 0, []byte("doc")); err != nil {
		t.Fatalf("Update: %v", err)
	}
	got, err := n.View("TradeLensCC", "GetBillOfLading", [][]byte{[]byte("po-1")})
	if err != nil || !bytes.Equal(got, []byte("doc")) {
		t.Fatalf("View: %q, %v", got, err)
	}
	if _, err := n.View("TradeLensCC", "Nope", nil); !errors.Is(err, ErrUnknownView) {
		t.Fatalf("unknown view: %v", err)
	}
}

// foreignRequester builds a foreign network ("we-trade") client.
func foreignRequester(t testing.TB) (certPEM []byte, cfg *wire.NetworkConfig, open func(*wire.Query, *wire.QueryResponse) (*proof.Bundle, error)) {
	t.Helper()
	ca, err := msp.NewCA("seller-bank-org")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	clientKey, err := cryptoutil.GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	cert, err := ca.IssueForKey("swt-sc", msp.RoleClient, &clientKey.PublicKey)
	if err != nil {
		t.Fatalf("IssueForKey: %v", err)
	}
	id := &msp.Identity{Name: "swt-sc", OrgID: "seller-bank-org", Role: msp.RoleClient, Cert: cert, Key: clientKey}
	cfg = &wire.NetworkConfig{
		NetworkID: "we-trade",
		Platform:  "fabric",
		Orgs:      []wire.OrgConfig{{OrgID: "seller-bank-org", RootCertPEM: ca.RootCertPEM()}},
	}
	open = func(q *wire.Query, resp *wire.QueryResponse) (*proof.Bundle, error) {
		return proof.OpenResponse(cryptoutil.NewRecipient(clientKey), q, resp)
	}
	return id.CertPEM(), cfg, open
}

func notaryQuery(t testing.TB, certPEM []byte) *wire.Query {
	t.Helper()
	nonce, err := cryptoutil.NewNonce()
	if err != nil {
		t.Fatalf("NewNonce: %v", err)
	}
	return &wire.Query{
		RequestID:         "req-1",
		RequestingNetwork: "we-trade",
		TargetNetwork:     "stl-notary",
		Ledger:            "default",
		Contract:          "TradeLensCC",
		Function:          "GetBillOfLading",
		Args:              [][]byte{[]byte("po-1")},
		PolicyExpr:        "AND('notary-alpha','notary-beta')",
		RequesterCertPEM:  certPEM,
		Nonce:             nonce,
	}
}

func TestDriverQueryWithProof(t *testing.T) {
	n := newNotaryNet(t)
	certPEM, cfg, open := foreignRequester(t)
	n.RecordForeignConfig(cfg)
	if err := n.Grant(policy.AccessRule{
		Network: "we-trade", Org: "seller-bank-org",
		Chaincode: "TradeLensCC", Function: "GetBillOfLading",
	}); err != nil {
		t.Fatalf("Grant: %v", err)
	}
	_, _ = n.Update("bl/po-1", 0, []byte(`{"blId":"bl-1","poRef":"po-1"}`))

	d := NewDriver(n, "default")
	if d.Platform() != "notary" {
		t.Fatalf("Platform = %q", d.Platform())
	}
	q := notaryQuery(t, certPEM)
	resp, err := d.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(resp.Attestations) != 2 {
		t.Fatalf("attestations = %d", len(resp.Attestations))
	}

	bundle, err := open(q, resp)
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}
	// Destination-side validation with the notary network's exported
	// config: the same proof.Verify machinery used for Fabric sources.
	exported := n.ExportConfig()
	roots := make(map[string][]byte)
	for _, org := range exported.Orgs {
		roots[org.OrgID] = org.RootCertPEM
	}
	verifier, err := msp.NewVerifier(roots)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	vp := endorsement.MustParse(q.PolicyExpr)
	if err := proof.Verify(bundle, verifier, vp, proof.QueryDigestOf(q), proof.PolicyDigest(q.PolicyExpr)); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestDriverDeniesWithoutRule(t *testing.T) {
	n := newNotaryNet(t)
	certPEM, cfg, _ := foreignRequester(t)
	n.RecordForeignConfig(cfg)
	_, _ = n.Update("bl/po-1", 0, []byte("doc"))
	d := NewDriver(n, "default")
	if _, err := d.Query(context.Background(), notaryQuery(t, certPEM)); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestDriverDeniesUnknownRequesterNetwork(t *testing.T) {
	n := newNotaryNet(t)
	certPEM, _, _ := foreignRequester(t)
	// Config never recorded.
	d := NewDriver(n, "default")
	if _, err := d.Query(context.Background(), notaryQuery(t, certPEM)); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestDriverRejectsImposterCert(t *testing.T) {
	n := newNotaryNet(t)
	_, cfg, _ := foreignRequester(t)
	n.RecordForeignConfig(cfg)
	_ = n.Grant(policy.AccessRule{Network: "we-trade", Org: "seller-bank-org", Chaincode: "TradeLensCC", Function: "GetBillOfLading"})

	// Same org name, different (unrecorded) CA.
	rogueCA, _ := msp.NewCA("seller-bank-org")
	rogueKey, _ := cryptoutil.GenerateKey()
	rogueCert, _ := rogueCA.IssueForKey("imposter", msp.RoleClient, &rogueKey.PublicKey)
	rogueID := &msp.Identity{Name: "imposter", OrgID: "seller-bank-org", Role: msp.RoleClient, Cert: rogueCert, Key: rogueKey}

	d := NewDriver(n, "default")
	if _, err := d.Query(context.Background(), notaryQuery(t, rogueID.CertPEM())); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestDriverThroughRelay(t *testing.T) {
	// The relay serves a notary network with zero relay-side changes.
	n := newNotaryNet(t)
	certPEM, cfg, open := foreignRequester(t)
	n.RecordForeignConfig(cfg)
	_ = n.Grant(policy.AccessRule{Network: "we-trade", Org: "seller-bank-org", Chaincode: "TradeLensCC", Function: "GetBillOfLading"})
	_, _ = n.Update("bl/po-1", 0, []byte("notary-doc"))

	hub := relay.NewHub()
	reg := relay.NewStaticRegistry()
	srcRelay := relay.New("stl-notary", reg, hub)
	srcRelay.RegisterDriver("stl-notary", NewDriver(n, "default"))
	hub.Attach("notary-relay", srcRelay)
	reg.Register("stl-notary", "notary-relay")

	dest := relay.New("we-trade", reg, hub)
	q := notaryQuery(t, certPEM)
	resp, err := dest.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	bundle, err := open(q, resp)
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}
	if !bytes.Equal(bundle.Result, []byte("notary-doc")) {
		t.Fatalf("result = %q", bundle.Result)
	}
}

func TestRevoke(t *testing.T) {
	n := newNotaryNet(t)
	rule := policy.AccessRule{Network: "we-trade", Org: "o", Chaincode: "c", Function: "f"}
	_ = n.Grant(rule)
	if !n.Revoke(rule) {
		t.Fatal("Revoke returned false")
	}
	if n.Revoke(rule) {
		t.Fatal("double Revoke returned true")
	}
}

func TestExportConfig(t *testing.T) {
	n := newNotaryNet(t)
	cfg := n.ExportConfig()
	if cfg.Platform != "notary" || len(cfg.Orgs) != 2 {
		t.Fatalf("config = %+v", cfg)
	}
	for _, org := range cfg.Orgs {
		if len(org.RootCertPEM) == 0 || len(org.PeerNames) != 1 {
			t.Fatalf("org config = %+v", org)
		}
	}
}

func TestConcurrentVaultAccess(t *testing.T) {
	n := newNotaryNet(t)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k-%d-%d", g, i)
				if _, e := n.Update(key, 0, []byte("v")); e != nil {
					err = e
					break
				}
				if _, _, e := n.Get(key); e != nil {
					err = e
					break
				}
			}
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent access: %v", err)
		}
	}
}
