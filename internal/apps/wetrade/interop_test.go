package wetrade

import (
	"context"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/msp"
	"repro/internal/policy"
	"repro/internal/proof"
	"repro/internal/relay"
	"repro/internal/wire"
)

// stlFixture fabricates the source network's identity material and a valid
// proof bundle for GetBillOfLading(poRef), without running a second
// network — the same technique the syscc tests use.
type stlFixture struct {
	sellerCA    *msp.CA
	carrierCA   *msp.CA
	sellerPeer  *msp.Identity
	carrierPeer *msp.Identity
}

func newSTLFixture(t *testing.T) *stlFixture {
	t.Helper()
	sellerCA, err := msp.NewCA("seller-org")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	carrierCA, err := msp.NewCA("carrier-org")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	sellerPeer, err := sellerCA.Issue("seller-org-peer0", msp.RolePeer)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	carrierPeer, err := carrierCA.Issue("carrier-org-peer0", msp.RolePeer)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	return &stlFixture{sellerCA: sellerCA, carrierCA: carrierCA, sellerPeer: sellerPeer, carrierPeer: carrierPeer}
}

func (f *stlFixture) config() *wire.NetworkConfig {
	return &wire.NetworkConfig{
		NetworkID: "tradelens",
		Platform:  "fabric",
		Orgs: []wire.OrgConfig{
			{OrgID: "seller-org", RootCertPEM: f.sellerCA.RootCertPEM()},
			{OrgID: "carrier-org", RootCertPEM: f.carrierCA.RootCertPEM()},
		},
	}
}

// bundleFor builds a fully attested bundle answering
// GetBillOfLading(poRef) with blJSON.
func (f *stlFixture) bundleFor(t *testing.T, poRef string, blJSON []byte) []byte {
	t.Helper()
	clientKey, err := cryptoutil.GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	nonce, err := cryptoutil.NewNonce()
	if err != nil {
		t.Fatalf("NewNonce: %v", err)
	}
	q := &wire.Query{
		TargetNetwork: "tradelens", Ledger: "default", Contract: "TradeLensCC",
		Function: "GetBillOfLading", Args: [][]byte{[]byte(poRef)}, Nonce: nonce,
		PolicyExpr: stlVerificationPolicy,
	}
	spec := proof.Spec{
		NetworkID: "tradelens", QueryDigest: proof.QueryDigestOf(q), PolicyDigest: proof.PolicyDigest(q.PolicyExpr),
		Result: blJSON, Nonce: nonce, ClientPub: &clientKey.PublicKey, Now: time.Now(),
	}
	resps, err := proof.NewBuilder(0, nil).Build(context.Background(), []proof.Spec{spec}, []*msp.Identity{f.sellerPeer, f.carrierPeer})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	bundle, err := proof.OpenResponse(cryptoutil.NewRecipient(clientKey), q, resps[0])
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}
	return bundle.Marshal()
}

// stlVerificationPolicy is the policy SWT records for STL, and so the pin
// every fabricated bundle carries.
const stlVerificationPolicy = "AND('seller-org.peer','carrier-org.peer')"

// interopSWT builds the SWT network with STL's fabricated config and
// verification policy recorded.
func interopSWT(t *testing.T, f *stlFixture) (*BuyerApp, *SellerApp) {
	t.Helper()
	n, err := BuildNetwork(relay.NewStaticRegistry(), relay.NewHub())
	if err != nil {
		t.Fatalf("BuildNetwork: %v", err)
	}
	admin, err := AdminGateway(n, BuyerBankOrg)
	if err != nil {
		t.Fatalf("AdminGateway: %v", err)
	}
	if err := n.ConfigureForeignNetwork(admin, f.config()); err != nil {
		t.Fatalf("ConfigureForeignNetwork: %v", err)
	}
	if err := n.SetVerificationPolicy(admin, policy.VerificationPolicy{
		Network: "tradelens", Expr: stlVerificationPolicy,
	}); err != nil {
		t.Fatalf("SetVerificationPolicy: %v", err)
	}
	buyer, err := NewBuyerApp(n, "buyer")
	if err != nil {
		t.Fatalf("NewBuyerApp: %v", err)
	}
	seller, err := NewSellerApp(n, "seller")
	if err != nil {
		t.Fatalf("NewSellerApp: %v", err)
	}
	return buyer, seller
}

func acceptedLC(t *testing.T, buyer *BuyerApp, seller *SellerApp, lcID, poRef string) {
	t.Helper()
	lc := &LetterOfCredit{LCID: lcID, PORef: poRef, Buyer: "B", Seller: "S", Amount: 100, Currency: "USD"}
	if _, err := buyer.RequestLC(context.Background(), lc); err != nil {
		t.Fatalf("RequestLC: %v", err)
	}
	if _, err := buyer.IssueLC(context.Background(), lcID); err != nil {
		t.Fatalf("IssueLC: %v", err)
	}
	if _, err := seller.AcceptLC(context.Background(), lcID); err != nil {
		t.Fatalf("AcceptLC: %v", err)
	}
}

func TestUploadDispatchDocsWithValidProof(t *testing.T) {
	f := newSTLFixture(t)
	buyer, seller := interopSWT(t, f)
	acceptedLC(t, buyer, seller, "lc-1", "po-1")

	bundle := f.bundleFor(t, "po-1", []byte(`{"blId":"bl-9","poRef":"po-1"}`))
	got, err := seller.Client().Submit(context.Background(), ChaincodeName, FnUploadDispatchDocs, []byte("lc-1"), bundle)
	if err != nil {
		t.Fatalf("UploadDispatchDocs: %v", err)
	}
	lc, err := UnmarshalLetterOfCredit(got)
	if err != nil || lc.Status != StatusDocsReceived || lc.BLID != "bl-9" {
		t.Fatalf("lc = %+v, %v", lc, err)
	}

	// The full payment tail now runs inside this package.
	if _, err := seller.RequestPayment(context.Background(), "lc-1"); err != nil {
		t.Fatalf("RequestPayment: %v", err)
	}
	payment, err := buyer.MakePayment(context.Background(), "lc-1")
	if err != nil {
		t.Fatalf("MakePayment: %v", err)
	}
	if payment.Amount != 100 {
		t.Fatalf("payment = %+v", payment)
	}
	// Settlement record readable.
	data, err := buyer.Client().Evaluate(context.Background(), ChaincodeName, FnGetPayment, []byte("lc-1"))
	if err != nil {
		t.Fatalf("GetPayment: %v", err)
	}
	if p, err := UnmarshalPayment(data); err != nil || p.LCID != "lc-1" {
		t.Fatalf("payment record = %+v, %v", p, err)
	}
}

func TestUploadDispatchDocsWrongPO(t *testing.T) {
	f := newSTLFixture(t)
	buyer, seller := interopSWT(t, f)
	acceptedLC(t, buyer, seller, "lc-2", "po-2")

	// Proof answers po-OTHER; the L/C covers po-2.
	bundle := f.bundleFor(t, "po-OTHER", []byte(`{"blId":"bl-9","poRef":"po-OTHER"}`))
	if _, err := seller.Client().Submit(context.Background(), ChaincodeName, FnUploadDispatchDocs, []byte("lc-2"), bundle); err == nil {
		t.Fatal("B/L for another purchase order accepted")
	}
}

func TestUploadDispatchDocsNotJSON(t *testing.T) {
	f := newSTLFixture(t)
	buyer, seller := interopSWT(t, f)
	acceptedLC(t, buyer, seller, "lc-3", "po-3")

	// Valid proof over a non-B/L document.
	bundle := f.bundleFor(t, "po-3", []byte("not json at all"))
	if _, err := seller.Client().Submit(context.Background(), ChaincodeName, FnUploadDispatchDocs, []byte("lc-3"), bundle); err == nil {
		t.Fatal("non-B/L document accepted")
	}
}

func TestUploadDispatchDocsMissingBLID(t *testing.T) {
	f := newSTLFixture(t)
	buyer, seller := interopSWT(t, f)
	acceptedLC(t, buyer, seller, "lc-4", "po-4")

	bundle := f.bundleFor(t, "po-4", []byte(`{"poRef":"po-4"}`))
	if _, err := seller.Client().Submit(context.Background(), ChaincodeName, FnUploadDispatchDocs, []byte("lc-4"), bundle); err == nil {
		t.Fatal("B/L without identifier accepted")
	}
}

func TestUploadDispatchDocsEmitsEvent(t *testing.T) {
	f := newSTLFixture(t)
	buyer, seller := interopSWT(t, f)
	acceptedLC(t, buyer, seller, "lc-5", "po-5")

	sub := seller.Client().Gateway().Network().SubscribeEvents(ChaincodeName, EventDocsReceived)
	defer sub.Cancel()
	bundle := f.bundleFor(t, "po-5", []byte(`{"blId":"bl-5","poRef":"po-5"}`))
	if _, err := seller.Client().Submit(context.Background(), ChaincodeName, FnUploadDispatchDocs, []byte("lc-5"), bundle); err != nil {
		t.Fatalf("UploadDispatchDocs: %v", err)
	}
	select {
	case ev := <-sub.C:
		if string(ev.Payload) != "lc-5" {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("docs-received event not delivered")
	}
}
