package syscc

import (
	"bytes"
	"context"
	"encoding/json"
	"encoding/pem"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/chaincode"
	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/msp"
	"repro/internal/orderer"
	"repro/internal/policy"
	"repro/internal/proof"
	"repro/internal/wire"
)

// testBed is a destination-style network with the system contracts deployed,
// plus a foreign "source" network's CAs for forging configurations.
type testBed struct {
	net       *fabric.Network
	admin     *fabric.Gateway
	sourceCfg *wire.NetworkConfig
	sellerCA  *msp.CA
	carrierCA *msp.CA
}

func newTestBed(t *testing.T) *testBed {
	t.Helper()
	n := fabric.NewNetwork("we-trade", orderer.Config{BatchSize: 1})
	if _, err := n.AddOrg("buyer-bank-org", 1); err != nil {
		t.Fatalf("AddOrg: %v", err)
	}
	if _, err := n.AddOrg("seller-bank-org", 1); err != nil {
		t.Fatalf("AddOrg: %v", err)
	}
	sysPolicy := "OR('buyer-bank-org','seller-bank-org')"
	if err := n.Deploy(ECCName, &ECC{}, sysPolicy); err != nil {
		t.Fatalf("Deploy ECC: %v", err)
	}
	if err := n.Deploy(CMDACName, &CMDAC{}, sysPolicy); err != nil {
		t.Fatalf("Deploy CMDAC: %v", err)
	}
	org, _ := n.Org("buyer-bank-org")
	admin, err := org.CA.Issue("admin", msp.RoleAdmin)
	if err != nil {
		t.Fatalf("Issue admin: %v", err)
	}

	// Fabricate a source network config ("tradelens") with two orgs.
	sellerCA, _ := msp.NewCA("seller-org")
	carrierCA, _ := msp.NewCA("carrier-org")
	cfg := &wire.NetworkConfig{
		NetworkID: "tradelens",
		Platform:  "fabric",
		Orgs: []wire.OrgConfig{
			{OrgID: "seller-org", RootCertPEM: sellerCA.RootCertPEM(), PeerNames: []string{"seller-org-peer0"}},
			{OrgID: "carrier-org", RootCertPEM: carrierCA.RootCertPEM(), PeerNames: []string{"carrier-org-peer0"}},
		},
	}
	return &testBed{
		net:       n,
		admin:     n.Gateway(admin),
		sourceCfg: cfg,
		sellerCA:  sellerCA,
		carrierCA: carrierCA,
	}
}

func (tb *testBed) recordConfig(t *testing.T) {
	t.Helper()
	if _, err := tb.admin.Submit(CMDACName, CMDACSetNetworkConfig, tb.sourceCfg.Marshal()); err != nil {
		t.Fatalf("SetNetworkConfig: %v", err)
	}
}

func (tb *testBed) recordPolicy(t *testing.T, vp policy.VerificationPolicy) {
	t.Helper()
	data, err := vp.Marshal()
	if err != nil {
		t.Fatalf("marshal policy: %v", err)
	}
	if _, err := tb.admin.Submit(CMDACName, CMDACSetVerificationPolicy, data); err != nil {
		t.Fatalf("SetVerificationPolicy: %v", err)
	}
}

func TestCMDACConfigRoundTrip(t *testing.T) {
	tb := newTestBed(t)
	tb.recordConfig(t)
	got, err := tb.admin.EvaluateString(CMDACName, CMDACGetNetworkConfig, "tradelens")
	if err != nil {
		t.Fatalf("GetNetworkConfig: %v", err)
	}
	cfg, err := wire.UnmarshalNetworkConfig(got)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if cfg.NetworkID != "tradelens" || len(cfg.Orgs) != 2 {
		t.Fatalf("config = %+v", cfg)
	}
}

func TestCMDACGetMissingConfig(t *testing.T) {
	tb := newTestBed(t)
	if _, err := tb.admin.EvaluateString(CMDACName, CMDACGetNetworkConfig, "ghost"); err == nil {
		t.Fatal("missing config returned")
	}
}

func TestCMDACRejectsBadConfig(t *testing.T) {
	tb := newTestBed(t)
	empty := &wire.NetworkConfig{NetworkID: "x"}
	if _, err := tb.admin.Submit(CMDACName, CMDACSetNetworkConfig, empty.Marshal()); err == nil {
		t.Fatal("config without orgs accepted")
	}
	if _, err := tb.admin.Submit(CMDACName, CMDACSetNetworkConfig, []byte{0xFF, 0xFF}); err == nil {
		t.Fatal("garbage config accepted")
	}
}

func TestCMDACListNetworks(t *testing.T) {
	tb := newTestBed(t)
	tb.recordConfig(t)
	got, err := tb.admin.EvaluateString(CMDACName, CMDACListNetworks)
	if err != nil {
		t.Fatalf("ListNetworks: %v", err)
	}
	var ids []string
	if err := json.Unmarshal(got, &ids); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(ids) != 1 || ids[0] != "tradelens" {
		t.Fatalf("ids = %v", ids)
	}
}

func TestCMDACVerificationPolicyLookup(t *testing.T) {
	tb := newTestBed(t)
	tb.recordPolicy(t, policy.VerificationPolicy{Network: "tradelens", Expr: "'seller-org'"})
	tb.recordPolicy(t, policy.VerificationPolicy{
		Network: "tradelens", Chaincode: "TradeLensCC",
		Expr: "AND('seller-org','carrier-org')",
	})

	// Chaincode-specific lookup.
	got, err := tb.admin.EvaluateString(CMDACName, CMDACGetVerificationPolicy, "tradelens", "TradeLensCC")
	if err != nil {
		t.Fatalf("GetVerificationPolicy: %v", err)
	}
	vp, err := policy.UnmarshalVerificationPolicy(got)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !strings.Contains(vp.Expr, "AND") {
		t.Fatalf("specific policy = %+v", vp)
	}

	// Fallback to the network default for other chaincodes.
	got, err = tb.admin.EvaluateString(CMDACName, CMDACGetVerificationPolicy, "tradelens", "OtherCC")
	if err != nil {
		t.Fatalf("GetVerificationPolicy fallback: %v", err)
	}
	vp, _ = policy.UnmarshalVerificationPolicy(got)
	if vp.Expr != "'seller-org'" {
		t.Fatalf("fallback policy = %+v", vp)
	}

	// No policy at all for unknown networks.
	if _, err := tb.admin.EvaluateString(CMDACName, CMDACGetVerificationPolicy, "ghost", "cc"); err == nil {
		t.Fatal("missing policy returned")
	}
}

func TestCMDACRejectsInvalidPolicy(t *testing.T) {
	tb := newTestBed(t)
	bad, _ := json.Marshal(map[string]string{"network": "tl", "expr": "AND("})
	if _, err := tb.admin.Submit(CMDACName, CMDACSetVerificationPolicy, bad); err == nil {
		t.Fatal("unparseable policy accepted")
	}
}

func TestECCRuleLifecycle(t *testing.T) {
	tb := newTestBed(t)
	rule := policy.AccessRule{Network: "we-trade", Org: "seller-org", Chaincode: "TradeLensCC", Function: "GetBillOfLading"}
	ruleJSON, _ := rule.Marshal()
	if _, err := tb.admin.Submit(ECCName, ECCAddRule, ruleJSON); err != nil {
		t.Fatalf("AddAccessRule: %v", err)
	}

	got, err := tb.admin.EvaluateString(ECCName, ECCCheckAccess, "we-trade", "seller-org", "TradeLensCC", "GetBillOfLading")
	if err != nil {
		t.Fatalf("CheckAccess: %v", err)
	}
	if string(got) != "true" {
		t.Fatalf("CheckAccess = %q", got)
	}
	got, _ = tb.admin.EvaluateString(ECCName, ECCCheckAccess, "we-trade", "seller-org", "TradeLensCC", "GetShipment")
	if string(got) != "false" {
		t.Fatalf("CheckAccess other fn = %q", got)
	}

	list, err := tb.admin.EvaluateString(ECCName, ECCListRules)
	if err != nil {
		t.Fatalf("GetAccessRules: %v", err)
	}
	var rules []policy.AccessRule
	if err := json.Unmarshal(list, &rules); err != nil {
		t.Fatalf("unmarshal rules: %v", err)
	}
	if len(rules) != 1 || rules[0] != rule {
		t.Fatalf("rules = %+v", rules)
	}

	if _, err := tb.admin.Submit(ECCName, ECCRemoveRule, ruleJSON); err != nil {
		t.Fatalf("RemoveAccessRule: %v", err)
	}
	got, _ = tb.admin.EvaluateString(ECCName, ECCCheckAccess, "we-trade", "seller-org", "TradeLensCC", "GetBillOfLading")
	if string(got) != "true" && string(got) != "false" {
		t.Fatalf("CheckAccess = %q", got)
	}
	if string(got) != "false" {
		t.Fatal("removed rule still grants access")
	}
	if _, err := tb.admin.Submit(ECCName, ECCRemoveRule, ruleJSON); err == nil {
		t.Fatal("double remove accepted")
	}
}

func TestECCAuthorize(t *testing.T) {
	tb := newTestBed(t)
	tb.recordConfig(t)
	rule := policy.AccessRule{Network: "tradelens", Org: "seller-org", Chaincode: "SomeCC", Function: "ReadDoc"}
	ruleJSON, _ := rule.Marshal()
	if _, err := tb.admin.Submit(ECCName, ECCAddRule, ruleJSON); err != nil {
		t.Fatalf("AddAccessRule: %v", err)
	}

	requester, _ := tb.sellerCA.Issue("remote-client", msp.RoleClient)
	org, err := tb.admin.Evaluate(ECCName, ECCAuthorize,
		[]byte("tradelens"), requester.CertPEM(), []byte("SomeCC"), []byte("ReadDoc"))
	if err != nil {
		t.Fatalf("Authorize: %v", err)
	}
	if string(org) != "seller-org" {
		t.Fatalf("authorized org = %q", org)
	}

	// Carrier org has no rule.
	carrierClient, _ := tb.carrierCA.Issue("other-client", msp.RoleClient)
	if _, err := tb.admin.Evaluate(ECCName, ECCAuthorize,
		[]byte("tradelens"), carrierClient.CertPEM(), []byte("SomeCC"), []byte("ReadDoc")); err == nil {
		t.Fatal("unauthorized org authorized")
	}

	// A certificate from an unrecorded CA must be rejected even if it
	// claims a permitted org.
	rogueCA, _ := msp.NewCA("seller-org")
	rogue, _ := rogueCA.Issue("imposter", msp.RoleClient)
	if _, err := tb.admin.Evaluate(ECCName, ECCAuthorize,
		[]byte("tradelens"), rogue.CertPEM(), []byte("SomeCC"), []byte("ReadDoc")); err == nil {
		t.Fatal("imposter certificate authorized")
	}
}

func TestECCAuthorizeWithoutConfig(t *testing.T) {
	tb := newTestBed(t)
	requester, _ := tb.sellerCA.Issue("remote-client", msp.RoleClient)
	if _, err := tb.admin.Evaluate(ECCName, ECCAuthorize,
		[]byte("tradelens"), requester.CertPEM(), []byte("cc"), []byte("fn")); err == nil {
		t.Fatal("authorize without recorded config succeeded")
	}
}

func TestUnknownFunctions(t *testing.T) {
	tb := newTestBed(t)
	if _, err := tb.admin.EvaluateString(ECCName, "Bogus"); err == nil {
		t.Fatal("unknown ECC function accepted")
	}
	if _, err := tb.admin.EvaluateString(CMDACName, "Bogus"); err == nil {
		t.Fatal("unknown CMDAC function accepted")
	}
}

// Verification policies the tests record for tradelens; a bundle is pinned
// to the one its test records.
const (
	twoOrgPolicy    = "AND('seller-org.peer','carrier-org.peer')"
	eitherOrgPolicy = "OR('seller-org.peer','carrier-org.peer')"
	sellerPolicy    = "'seller-org.peer'"
)

// buildBundleFor constructs a valid proof bundle attested by the given
// identities for query GetBillOfLading(po-1001) against tradelens, pinned
// to the verification policy policyExpr.
func buildBundleFor(t *testing.T, policyExpr string, result []byte, nonce []byte, attestors ...*msp.Identity) []byte {
	t.Helper()
	clientKey, _ := cryptoutil.GenerateKey()
	q := &wire.Query{
		TargetNetwork: "tradelens", Ledger: "default", Contract: "TradeLensCC",
		Function: "GetBillOfLading", Args: [][]byte{[]byte("po-1001")}, Nonce: nonce,
		PolicyExpr: policyExpr,
	}
	spec := proof.Spec{
		NetworkID: "tradelens", QueryDigest: proof.QueryDigestOf(q), PolicyDigest: proof.PolicyDigest(policyExpr),
		Result: result, Nonce: nonce, ClientPub: &clientKey.PublicKey, Now: time.Now(),
	}
	resps, err := proof.NewBuilder(0, nil).Build(context.Background(), []proof.Spec{spec}, attestors)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	bundle, err := proof.OpenResponse(cryptoutil.NewRecipient(clientKey), q, resps[0])
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}
	return bundle.Marshal()
}

func TestCMDACValidateProofAcceptsValid(t *testing.T) {
	tb := newTestBed(t)
	tb.recordConfig(t)
	tb.recordPolicy(t, policy.VerificationPolicy{
		Network: "tradelens", Expr: twoOrgPolicy,
	})
	sellerPeer, _ := tb.sellerCA.Issue("seller-org-peer0", msp.RolePeer)
	carrierPeer, _ := tb.carrierCA.Issue("carrier-org-peer0", msp.RolePeer)
	nonce, _ := cryptoutil.NewNonce()
	bundleBytes := buildBundleFor(t, twoOrgPolicy, []byte("B/L-77"), nonce, sellerPeer, carrierPeer)

	got, err := tb.admin.Submit(CMDACName, CMDACValidateProof,
		[]byte("tradelens"), []byte("default"), []byte("TradeLensCC"), []byte("GetBillOfLading"),
		bundleBytes, []byte("po-1001"))
	if err != nil {
		t.Fatalf("ValidateProof: %v", err)
	}
	if !bytes.Equal(got, []byte("B/L-77")) {
		t.Fatalf("verified result = %q", got)
	}
}

func TestCMDACValidateProofRejectsInsufficientAttestors(t *testing.T) {
	tb := newTestBed(t)
	tb.recordConfig(t)
	tb.recordPolicy(t, policy.VerificationPolicy{
		Network: "tradelens", Expr: twoOrgPolicy,
	})
	sellerPeer, _ := tb.sellerCA.Issue("seller-org-peer0", msp.RolePeer)
	nonce, _ := cryptoutil.NewNonce()
	bundleBytes := buildBundleFor(t, twoOrgPolicy, []byte("B/L-77"), nonce, sellerPeer)

	if _, err := tb.admin.Submit(CMDACName, CMDACValidateProof,
		[]byte("tradelens"), []byte("default"), []byte("TradeLensCC"), []byte("GetBillOfLading"),
		bundleBytes, []byte("po-1001")); err == nil {
		t.Fatal("single-org proof accepted against two-org policy")
	}
}

func TestCMDACValidateProofRejectsWrongArgs(t *testing.T) {
	tb := newTestBed(t)
	tb.recordConfig(t)
	tb.recordPolicy(t, policy.VerificationPolicy{Network: "tradelens", Expr: sellerPolicy})
	sellerPeer, _ := tb.sellerCA.Issue("seller-org-peer0", msp.RolePeer)
	nonce, _ := cryptoutil.NewNonce()
	bundleBytes := buildBundleFor(t, sellerPolicy, []byte("B/L-77"), nonce, sellerPeer)

	// The proof binds po-1001; claiming it answers po-2002 must fail.
	if _, err := tb.admin.Submit(CMDACName, CMDACValidateProof,
		[]byte("tradelens"), []byte("default"), []byte("TradeLensCC"), []byte("GetBillOfLading"),
		bundleBytes, []byte("po-2002")); err == nil {
		t.Fatal("proof accepted for a different query")
	}
}

func TestCMDACValidateProofReplayRejected(t *testing.T) {
	tb := newTestBed(t)
	tb.recordConfig(t)
	tb.recordPolicy(t, policy.VerificationPolicy{Network: "tradelens", Expr: sellerPolicy})
	sellerPeer, _ := tb.sellerCA.Issue("seller-org-peer0", msp.RolePeer)
	nonce, _ := cryptoutil.NewNonce()
	bundleBytes := buildBundleFor(t, sellerPolicy, []byte("B/L-77"), nonce, sellerPeer)

	submit := func() error {
		_, err := tb.admin.Submit(CMDACName, CMDACValidateProof,
			[]byte("tradelens"), []byte("default"), []byte("TradeLensCC"), []byte("GetBillOfLading"),
			bundleBytes, []byte("po-1001"))
		return err
	}
	if err := submit(); err != nil {
		t.Fatalf("first ValidateProof: %v", err)
	}
	if err := submit(); err == nil {
		t.Fatal("replayed proof accepted")
	} else if !strings.Contains(err.Error(), "replay") {
		t.Fatalf("unexpected replay error: %v", err)
	}
}

func TestCMDACValidateProofRefusesUnpinnedBundle(t *testing.T) {
	tb := newTestBed(t)
	tb.recordConfig(t)
	tb.recordPolicy(t, policy.VerificationPolicy{Network: "tradelens", Expr: sellerPolicy})
	sellerPeer, _ := tb.sellerCA.Issue("seller-org-peer0", msp.RolePeer)
	nonce, _ := cryptoutil.NewNonce()
	result := []byte("B/L-77")
	// A genuine attestor's signature over metadata that names no policy,
	// in a bundle that names none either: valid in every other respect.
	qd := proof.QueryDigest("tradelens", "default", "TradeLensCC", "GetBillOfLading", [][]byte{[]byte("po-1001")}, nonce)
	md := wire.Metadata{
		NetworkID: "tradelens", PeerName: sellerPeer.Name, OrgID: sellerPeer.OrgID, QueryDigest: qd,
		ResultDigest: cryptoutil.Digest(result), Nonce: nonce, UnixNano: uint64(time.Now().UnixNano()),
	}
	plain := md.Marshal()
	sig, err := cryptoutil.SignDigest(sellerPeer.Key, cryptoutil.Digest(plain))
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	bundle := &proof.Bundle{SourceNetwork: "tradelens", Result: result, Nonce: nonce, QueryDigest: qd,
		Elements: []proof.Element{{CertPEM: sellerPeer.CertPEM(), Metadata: plain, Signature: sig}}}
	_, err = tb.admin.Submit(CMDACName, CMDACValidateProof,
		[]byte("tradelens"), []byte("default"), []byte("TradeLensCC"), []byte("GetBillOfLading"),
		bundle.Marshal(), []byte("po-1001"))
	if !errors.Is(err, proof.ErrPolicyDigestMismatch) {
		t.Fatalf("unpinned bundle: err = %v, want a policy pin refusal", err)
	}
}

func pemOf(der []byte) []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})
}

// The verifier and its verdicts are memoised by the recorded configuration's
// bytes, so a configuration transaction takes effect on the very next call:
// an org dropped by SetNetworkConfig is refused by ECC.Authorize and
// CMDAC.ValidateProof even though both had just authenticated it.
func TestConfigRotationDropsOrgOnNextCall(t *testing.T) {
	tb := newTestBed(t)
	tb.recordConfig(t)
	tb.recordPolicy(t, policy.VerificationPolicy{
		Network: "tradelens", Expr: eitherOrgPolicy,
	})
	for _, org := range []string{"seller-org", "carrier-org"} {
		rule := policy.AccessRule{Network: "tradelens", Org: org, Chaincode: "SomeCC", Function: "ReadDoc"}
		ruleJSON, _ := rule.Marshal()
		if _, err := tb.admin.Submit(ECCName, ECCAddRule, ruleJSON); err != nil {
			t.Fatalf("AddAccessRule: %v", err)
		}
	}
	carrierClient, _ := tb.carrierCA.Issue("carrier-client", msp.RoleClient)
	carrierPeer, _ := tb.carrierCA.Issue("carrier-org-peer0", msp.RolePeer)
	sellerPeer, _ := tb.sellerCA.Issue("seller-org-peer0", msp.RolePeer)

	authorize := func() error {
		_, err := tb.admin.Evaluate(ECCName, ECCAuthorize,
			[]byte("tradelens"), carrierClient.CertPEM(), []byte("SomeCC"), []byte("ReadDoc"))
		return err
	}
	validate := func(attestor *msp.Identity) error {
		nonce, _ := cryptoutil.NewNonce()
		_, err := tb.admin.Submit(CMDACName, CMDACValidateProof,
			[]byte("tradelens"), []byte("default"), []byte("TradeLensCC"), []byte("GetBillOfLading"),
			buildBundleFor(t, eitherOrgPolicy, []byte("B/L-77"), nonce, attestor), []byte("po-1001"))
		return err
	}

	// Twice each, so the second call is answered from remembered verdicts.
	for i := 0; i < 2; i++ {
		if err := authorize(); err != nil {
			t.Fatalf("Authorize under the two-org config: %v", err)
		}
		if err := validate(carrierPeer); err != nil {
			t.Fatalf("ValidateProof under the two-org config: %v", err)
		}
	}

	sellerOnly := &wire.NetworkConfig{NetworkID: "tradelens", Platform: "fabric", Orgs: tb.sourceCfg.Orgs[:1]}
	if _, err := tb.admin.Submit(CMDACName, CMDACSetNetworkConfig, sellerOnly.Marshal()); err != nil {
		t.Fatalf("SetNetworkConfig: %v", err)
	}
	if err := authorize(); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("Authorize for the dropped org: err = %v", err)
	}
	if err := validate(carrierPeer); !errors.Is(err, proof.ErrBadAttestation) {
		t.Fatalf("ValidateProof attested by the dropped org: err = %v", err)
	}
	if err := validate(sellerPeer); err != nil {
		t.Fatalf("ValidateProof attested by the remaining org: %v", err)
	}
}

// TestValueIsolationValidatedProofResult: a Data Acceptance chaincode that
// stores what ValidateProof verified commits a value independent of the
// bundle argument. The verified result is a view of that argument
// (proof.UnmarshalBundle decodes in place), so PutState's copy is what
// keeps a later write to the submitted bytes out of every peer's state.
func TestValueIsolationValidatedProofResult(t *testing.T) {
	tb := newTestBed(t)
	tb.recordConfig(t)
	tb.recordPolicy(t, policy.VerificationPolicy{Network: "tradelens", Expr: twoOrgPolicy})
	accept := chaincode.Func(func(stub chaincode.Stub) ([]byte, error) {
		verified, err := stub.InvokeChaincode(CMDACName, CMDACValidateProof,
			ValidateProofArgs("tradelens", "default", "TradeLensCC", "GetBillOfLading", stub.Args()[0], []byte("po-1001")))
		if err != nil {
			return nil, err
		}
		return nil, stub.PutState("doc", verified)
	})
	if err := tb.net.Deploy("accept", accept, "OR('buyer-bank-org','seller-bank-org')"); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	sellerPeer, _ := tb.sellerCA.Issue("seller-org-peer0", msp.RolePeer)
	carrierPeer, _ := tb.carrierCA.Issue("carrier-org-peer0", msp.RolePeer)
	nonce, _ := cryptoutil.NewNonce()
	bundleBytes := buildBundleFor(t, twoOrgPolicy, []byte("B/L-77"), nonce, sellerPeer, carrierPeer)
	if _, err := tb.admin.Submit("accept", "Accept", bundleBytes); err != nil {
		t.Fatalf("Accept: %v", err)
	}
	for i := range bundleBytes {
		bundleBytes[i] ^= 0xFF
	}
	for _, p := range tb.net.AllPeers() {
		if vv, ok := p.State().Get("accept", "doc"); !ok || string(vv.Value) != "B/L-77" {
			t.Errorf("peer %s commits %q (present %v), want %q", p.Name(), vv.Value, ok, "B/L-77")
		}
	}
}
