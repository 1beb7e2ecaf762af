package relay

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"encoding/pem"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaincode"
	"repro/internal/cryptoutil"
	"repro/internal/endorsement"
	"repro/internal/fabric"
	"repro/internal/msp"
	"repro/internal/orderer"
	"repro/internal/policy"
	"repro/internal/proof"
	"repro/internal/statedb"
	"repro/internal/syscc"
	"repro/internal/wire"
)

// docsChaincode is a minimal interop-aware data contract: PutDoc stores a
// document; GetDoc serves it, consulting the ECC for access control when the
// invocation arrives through a relay (the paper's ~2-call source-side
// adaptation).
var docsChaincode = chaincode.Func(func(stub chaincode.Stub) ([]byte, error) {
	args := stub.Args()
	switch stub.Function() {
	case "PutDoc":
		if len(args) != 2 {
			return nil, errors.New("PutDoc needs key and value")
		}
		return nil, stub.PutState("doc/"+string(args[0]), args[1])
	case "GetDoc":
		if len(args) != 1 {
			return nil, errors.New("GetDoc needs key")
		}
		if stub.GetTransient(syscc.TransientInteropFlag) != nil {
			requestingNet := stub.GetTransient(syscc.TransientRequestingNetwork)
			if _, err := stub.InvokeChaincode(syscc.ECCName, syscc.ECCAuthorize, [][]byte{
				requestingNet, stub.CreatorCert(), []byte("docs"), []byte("GetDoc"),
			}); err != nil {
				return nil, err
			}
		}
		return stub.GetState("doc/" + string(args[0]))
	default:
		return nil, fmt.Errorf("unknown function %q", stub.Function())
	}
})

// sourceEnv is a relay-enabled source network fixture ("tradelens" style).
type sourceEnv struct {
	net    *fabric.Network
	admin  *fabric.Gateway
	relay  *Relay
	driver *FabricDriver
}

func newSourceEnv(t testing.TB, discovery Discovery, transport Transport) *sourceEnv {
	t.Helper()
	n := fabric.NewNetwork("tradelens", orderer.Config{BatchSize: 1})
	for _, org := range []string{"seller-org", "carrier-org"} {
		if _, err := n.AddOrg(org, 1); err != nil {
			t.Fatalf("AddOrg %s: %v", org, err)
		}
	}
	sysPolicy := "OR('seller-org','carrier-org')"
	if err := n.Deploy(syscc.ECCName, &syscc.ECC{}, sysPolicy); err != nil {
		t.Fatalf("Deploy ECC: %v", err)
	}
	if err := n.Deploy(syscc.CMDACName, &syscc.CMDAC{}, sysPolicy); err != nil {
		t.Fatalf("Deploy CMDAC: %v", err)
	}
	if err := n.Deploy("docs", docsChaincode, "AND('seller-org','carrier-org')"); err != nil {
		t.Fatalf("Deploy docs: %v", err)
	}
	org, _ := n.Org("seller-org")
	adminID, err := org.CA.Issue("stl-admin", msp.RoleAdmin)
	if err != nil {
		t.Fatalf("Issue admin: %v", err)
	}
	r := New("tradelens", discovery, transport)
	d := NewFabricDriver(n, "default")
	r.RegisterDriver("tradelens", d)
	return &sourceEnv{net: n, admin: n.Gateway(adminID), relay: r, driver: d}
}

// requester models the destination-side client (a "we-trade" member) with
// its own key pair certified by its org CA.
type requester struct {
	ca      *msp.CA
	key     *ecdsa.PrivateKey
	certPEM []byte
	cfg     *wire.NetworkConfig
}

func newRequester(t testing.TB) *requester {
	t.Helper()
	ca, err := msp.NewCA("seller-bank-org")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	key, err := cryptoutil.GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	cert, err := ca.IssueForKey("swt-seller-client", msp.RoleClient, &key.PublicKey)
	if err != nil {
		t.Fatalf("IssueForKey: %v", err)
	}
	certPEM := pemCert(cert.Raw)
	cfg := &wire.NetworkConfig{
		NetworkID: "we-trade",
		Platform:  "fabric",
		Orgs: []wire.OrgConfig{
			{OrgID: "seller-bank-org", RootCertPEM: ca.RootCertPEM()},
		},
	}
	return &requester{ca: ca, key: key, certPEM: certPEM, cfg: cfg}
}

func pemCert(der []byte) []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})
}

// respError renders a possibly-nil response plus error for assertions.
func respError(resp *wire.QueryResponse, err error) string {
	msg := fmt.Sprint(err)
	if resp != nil {
		msg += " " + resp.Error
	}
	return msg
}

// configureInterop records the requester network's config and an access
// rule on the source network.
func configureInterop(t testing.TB, src *sourceEnv, req *requester) {
	t.Helper()
	if _, err := src.admin.Submit(syscc.CMDACName, syscc.CMDACSetNetworkConfig, req.cfg.Marshal()); err != nil {
		t.Fatalf("SetNetworkConfig: %v", err)
	}
	rule := policy.AccessRule{Network: "we-trade", Org: "seller-bank-org", Chaincode: "docs", Function: "GetDoc"}
	ruleJSON, _ := rule.Marshal()
	if _, err := src.admin.Submit(syscc.ECCName, syscc.ECCAddRule, ruleJSON); err != nil {
		t.Fatalf("AddAccessRule: %v", err)
	}
}

func newQuery(t testing.TB, req *requester) *wire.Query {
	t.Helper()
	nonce, err := cryptoutil.NewNonce()
	if err != nil {
		t.Fatalf("NewNonce: %v", err)
	}
	return &wire.Query{
		RequestingNetwork: "we-trade",
		TargetNetwork:     "tradelens",
		Ledger:            "default",
		Contract:          "docs",
		Function:          "GetDoc",
		Args:              [][]byte{[]byte("bl-77")},
		PolicyExpr:        "AND('seller-org','carrier-org')",
		RequesterCertPEM:  req.certPEM,
		RequesterOrg:      "seller-bank-org",
		Nonce:             nonce,
	}
}

func TestCrossNetworkQueryEndToEnd(t *testing.T) {
	hub := NewHub()
	reg := NewStaticRegistry()
	src := newSourceEnv(t, reg, hub)
	req := newRequester(t)
	configureInterop(t, src, req)

	// Store the document on the source ledger.
	if _, err := src.admin.Submit("docs", "PutDoc", []byte("bl-77"), []byte(`{"bl":"77"}`)); err != nil {
		t.Fatalf("PutDoc: %v", err)
	}

	hub.Attach("stl-relay:9080", src.relay)
	reg.Register("tradelens", "stl-relay:9080")

	dest := New("we-trade", reg, hub)
	q := newQuery(t, req)
	resp, err := dest.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if resp.Error != "" {
		t.Fatalf("remote error: %s", resp.Error)
	}
	if len(resp.Attestations) != 2 {
		t.Fatalf("attestations = %d", len(resp.Attestations))
	}

	// The client opens the response and verifies the proof against the
	// source network's exported configuration.
	bundle, err := proof.OpenResponse(cryptoutil.NewRecipient(req.key), q, resp)
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}
	if !bytes.Equal(bundle.Result, []byte(`{"bl":"77"}`)) {
		t.Fatalf("result = %q", bundle.Result)
	}
	srcCfg := src.net.ExportConfig()
	roots := make(map[string][]byte)
	for _, o := range srcCfg.Orgs {
		roots[o.OrgID] = o.RootCertPEM
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

// TestQueryWithRetiredCapabilityFieldsGetsSessionedAnswer: clients built
// while the proof envelope was negotiated still send the capability fields
// 13 and 14. The relay decodes them as absent and answers with the same
// sessioned envelope every request gets.
func TestQueryWithRetiredCapabilityFieldsGetsSessionedAnswer(t *testing.T) {
	hub := NewHub()
	reg := NewStaticRegistry()
	src := newSourceEnv(t, reg, hub)
	req := newRequester(t)
	configureInterop(t, src, req)
	if _, err := src.admin.Submit("docs", "PutDoc", []byte("bl-77"), []byte(`{"bl":"77"}`)); err != nil {
		t.Fatalf("PutDoc: %v", err)
	}
	q := newQuery(t, req)
	q.RequestID = "older-client"
	retired := wire.NewEncoder(8)
	retired.Uint(13, 1)
	retired.Uint(14, 1)
	reply := src.relay.HandleEnvelope(context.Background(), &wire.Envelope{
		Version: wire.ProtocolVersion, Type: wire.MsgQuery, RequestID: q.RequestID,
		Payload: append(q.Marshal(), retired.Bytes()...),
	})
	if reply.Type != wire.MsgQueryResponse {
		t.Fatalf("reply type = %v: %s", reply.Type, reply.Payload)
	}
	resp, err := wire.UnmarshalQueryResponse(reply.Payload)
	if err != nil {
		t.Fatalf("UnmarshalQueryResponse: %v", err)
	}
	if resp.Error != "" {
		t.Fatalf("remote error: %s", resp.Error)
	}
	if len(resp.SessionEphemeral) == 0 {
		t.Fatal("result is not a sessioned envelope")
	}
	for i, att := range resp.Attestations {
		if len(att.SessionEphemeral) == 0 {
			t.Fatalf("attestation %d is not a sessioned envelope", i)
		}
	}
	bundle, err := proof.OpenResponse(cryptoutil.NewRecipient(req.key), q, resp)
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}
	if !bytes.Equal(bundle.Result, []byte(`{"bl":"77"}`)) {
		t.Fatalf("result = %q", bundle.Result)
	}
}

func TestQueryDeniedWithoutRule(t *testing.T) {
	hub := NewHub()
	reg := NewStaticRegistry()
	src := newSourceEnv(t, reg, hub)
	req := newRequester(t)
	// Record the config but add NO access rule.
	if _, err := src.admin.Submit(syscc.CMDACName, syscc.CMDACSetNetworkConfig, req.cfg.Marshal()); err != nil {
		t.Fatalf("SetNetworkConfig: %v", err)
	}
	_, _ = src.admin.Submit("docs", "PutDoc", []byte("bl-77"), []byte("doc"))

	hub.Attach("stl-relay", src.relay)
	reg.Register("tradelens", "stl-relay")
	dest := New("we-trade", reg, hub)

	resp, err := dest.Query(context.Background(), newQuery(t, req))
	if err == nil && resp.Error == "" {
		t.Fatal("query without access rule succeeded")
	}
	if !bytes.Contains([]byte(respError(resp, err)), []byte("access denied")) {
		t.Fatalf("unexpected failure: resp=%v err=%v", resp, err)
	}
}

func TestQueryUnknownNetwork(t *testing.T) {
	reg := NewStaticRegistry()
	dest := New("we-trade", reg, NewHub())
	q := &wire.Query{TargetNetwork: "ghost-net", Contract: "cc", Function: "fn"}
	if _, err := dest.Query(context.Background(), q); !errors.Is(err, ErrUnknownNetwork) {
		t.Fatalf("err = %v", err)
	}
}

func TestFailoverToRedundantRelay(t *testing.T) {
	hub := NewHub()
	reg := NewStaticRegistry()
	src := newSourceEnv(t, reg, hub)
	req := newRequester(t)
	configureInterop(t, src, req)
	_, _ = src.admin.Submit("docs", "PutDoc", []byte("bl-77"), []byte("doc"))

	// Two relays front the source network; the primary is down.
	hub.Attach("stl-relay-1", src.relay)
	hub.Attach("stl-relay-2", src.relay)
	reg.Register("tradelens", "stl-relay-1", "stl-relay-2")
	hub.SetDown("stl-relay-1", true)

	dest := New("we-trade", reg, hub)
	resp, err := dest.Query(context.Background(), newQuery(t, req))
	if err != nil {
		t.Fatalf("failover query: %v", err)
	}
	if resp.Error != "" {
		t.Fatalf("remote error: %s", resp.Error)
	}
}

func TestAllRelaysDown(t *testing.T) {
	hub := NewHub()
	reg := NewStaticRegistry()
	src := newSourceEnv(t, reg, hub)
	req := newRequester(t)
	configureInterop(t, src, req)

	hub.Attach("stl-relay-1", src.relay)
	reg.Register("tradelens", "stl-relay-1")
	hub.SetDown("stl-relay-1", true)

	dest := New("we-trade", reg, hub)
	if _, err := dest.Query(context.Background(), newQuery(t, req)); !errors.Is(err, ErrAllRelaysFailed) {
		t.Fatalf("err = %v", err)
	}
}

func TestLocalNetworkShortcut(t *testing.T) {
	hub := NewHub()
	reg := NewStaticRegistry() // deliberately empty: no addresses at all
	src := newSourceEnv(t, reg, hub)
	req := newRequester(t)
	configureInterop(t, src, req)
	_, _ = src.admin.Submit("docs", "PutDoc", []byte("bl-77"), []byte("doc"))

	// The source relay itself serves queries for its own network without
	// any discovery or transport.
	resp, err := src.relay.Query(context.Background(), newQuery(t, req))
	if err != nil {
		t.Fatalf("local query: %v", err)
	}
	if resp.Error != "" {
		t.Fatalf("remote error: %s", resp.Error)
	}
}

func TestDivergentPeerResultsRejected(t *testing.T) {
	hub := NewHub()
	reg := NewStaticRegistry()
	src := newSourceEnv(t, reg, hub)
	req := newRequester(t)
	configureInterop(t, src, req)
	_, _ = src.admin.Submit("docs", "PutDoc", []byte("bl-77"), []byte("honest"))

	// Corrupt one org's peer state directly, simulating a faulty or
	// compromised peer.
	peers, _ := src.net.PeersOf("carrier-org")
	peers[0].State().ApplyWrites(
		[]statedb.Write{{Namespace: "docs", Key: "doc/bl-77", Value: []byte("tampered")}}, statedb.Version{BlockNum: 99})

	hub.Attach("stl-relay", src.relay)
	reg.Register("tradelens", "stl-relay")
	dest := New("we-trade", reg, hub)
	resp, err := dest.Query(context.Background(), newQuery(t, req))
	if err == nil && resp.Error == "" {
		t.Fatal("divergent results not detected")
	}
}

func TestUnsupportedVersionRejected(t *testing.T) {
	hub := NewHub()
	reg := NewStaticRegistry()
	src := newSourceEnv(t, reg, hub)
	env := &wire.Envelope{Version: 99, Type: wire.MsgQuery, RequestID: "x"}
	reply := src.relay.HandleEnvelope(context.Background(), env)
	if reply.Type != wire.MsgError {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestUnknownTargetAtSourceRelay(t *testing.T) {
	hub := NewHub()
	reg := NewStaticRegistry()
	src := newSourceEnv(t, reg, hub)
	q := &wire.Query{TargetNetwork: "not-served", Contract: "cc", Function: "fn"}
	env := &wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgQuery, RequestID: "r", Payload: q.Marshal()}
	reply := src.relay.HandleEnvelope(context.Background(), env)
	if reply.Type != wire.MsgError {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestStaticRegistry(t *testing.T) {
	reg := NewStaticRegistry()
	if _, err := reg.Resolve("a"); !errors.Is(err, ErrUnknownNetwork) {
		t.Fatalf("empty resolve: %v", err)
	}
	reg.Register("a", "addr1", "addr2")
	reg.Register("a", "addr1") // dedupe: re-registration is a no-op
	addrs, err := reg.Resolve("a")
	if err != nil || len(addrs) != 2 || addrs[0] != "addr1" {
		t.Fatalf("Resolve = %v, %v", addrs, err)
	}
	if err := reg.Deregister("a", "addr1"); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	addrs, _ = reg.Resolve("a")
	if len(addrs) != 1 || addrs[0] != "addr2" {
		t.Fatalf("after Deregister = %v", addrs)
	}
}

// TestStaticRegistryLeases: leased entries resolve until their TTL lapses,
// renewal extends them, and Deregister removes them.
func TestStaticRegistryLeases(t *testing.T) {
	clk := newFakeClock()
	reg := NewStaticRegistry()
	reg.now = clk.Now

	if err := reg.RegisterLease("a", "leased", 30*time.Second); err != nil {
		t.Fatalf("RegisterLease: %v", err)
	}
	reg.Register("a", "permanent")
	if addrs, _ := reg.Resolve("a"); len(addrs) != 2 {
		t.Fatalf("Resolve = %v", addrs)
	}
	clk.Advance(20 * time.Second)
	if err := reg.RegisterLease("a", "leased", 30*time.Second); err != nil {
		t.Fatalf("renew: %v", err)
	}
	clk.Advance(20 * time.Second)
	if addrs, _ := reg.Resolve("a"); len(addrs) != 2 {
		t.Fatalf("renewed lease lapsed early: %v", addrs)
	}
	clk.Advance(time.Minute)
	addrs, err := reg.Resolve("a")
	if err != nil || len(addrs) != 1 || addrs[0] != "permanent" {
		t.Fatalf("after expiry Resolve = %v, %v", addrs, err)
	}
	if err := reg.Deregister("a", "permanent"); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if _, err := reg.Resolve("a"); !errors.Is(err, ErrUnknownNetwork) {
		t.Fatalf("after Deregister err = %v, want ErrUnknownNetwork", err)
	}
}

func TestTCPTransportEndToEnd(t *testing.T) {
	reg := NewStaticRegistry()
	transport := &TCPTransport{DialTimeout: 2 * time.Second, IOTimeout: 10 * time.Second}
	src := newSourceEnv(t, reg, transport)
	req := newRequester(t)
	configureInterop(t, src, req)
	_, _ = src.admin.Submit("docs", "PutDoc", []byte("bl-77"), []byte("tcp-doc"))

	server, err := NewTCPServer(src.relay, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPServer: %v", err)
	}
	defer func() {
		if err := server.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	reg.Register("tradelens", server.Addr())

	dest := New("we-trade", reg, transport)
	q := newQuery(t, req)
	resp, err := dest.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("Query over TCP: %v", err)
	}
	if resp.Error != "" {
		t.Fatalf("remote error: %s", resp.Error)
	}
	bundle, err := proof.OpenResponse(cryptoutil.NewRecipient(req.key), q, resp)
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}
	if !bytes.Equal(bundle.Result, []byte("tcp-doc")) {
		t.Fatalf("result = %q", bundle.Result)
	}
}

func TestTCPPing(t *testing.T) {
	reg := NewStaticRegistry()
	transport := &TCPTransport{DialTimeout: 2 * time.Second, IOTimeout: 5 * time.Second}
	src := newSourceEnv(t, reg, transport)
	server, err := NewTCPServer(src.relay, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPServer: %v", err)
	}
	defer server.Close()

	probe := New("we-trade", reg, transport)
	if err := probe.Ping(context.Background(), server.Addr()); err != nil {
		t.Fatalf("Ping: %v", err)
	}
}

func TestTCPUnreachable(t *testing.T) {
	transport := &TCPTransport{DialTimeout: 200 * time.Millisecond, IOTimeout: time.Second}
	_, err := transport.Send(context.Background(), "127.0.0.1:1", &wire.Envelope{Version: 1, Type: wire.MsgPing})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestCrossNetworkEvents(t *testing.T) {
	hub := NewHub()
	reg := NewStaticRegistry()
	src := newSourceEnv(t, reg, hub)
	req := newRequester(t)
	configureInterop(t, src, req)

	// Deploy an event-emitting chaincode on the source network.
	if err := src.net.Deploy("emitter", chaincode.Func(func(stub chaincode.Stub) ([]byte, error) {
		return nil, stub.SetEvent("bl-issued", stub.Args()[0])
	}), "OR('seller-org','carrier-org')"); err != nil {
		t.Fatalf("Deploy emitter: %v", err)
	}

	hub.Attach("stl-relay", src.relay)
	reg.Register("tradelens", "stl-relay")
	dest := New("we-trade", reg, hub)
	hub.Attach("swt-relay", dest)
	reg.Register("we-trade", "swt-relay")

	events, cancel, err := dest.SubscribeRemote(context.Background(), "tradelens", "bl-issued", req.certPEM)
	if err != nil {
		t.Fatalf("SubscribeRemote: %v", err)
	}
	defer cancel()
	defer src.relay.StopServing()

	if _, err := src.admin.Submit("emitter", "emit", []byte("po-1001")); err != nil {
		t.Fatalf("emit: %v", err)
	}
	select {
	case ev := <-events:
		if ev.Name != "bl-issued" || !bytes.Equal(ev.Payload, []byte("po-1001")) {
			t.Fatalf("event = %+v", ev)
		}
		if ev.SourceNetwork != "tradelens" {
			t.Fatalf("source = %q", ev.SourceNetwork)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("event never arrived")
	}
}

func BenchmarkCrossNetworkQueryInProc(b *testing.B) {
	hub := NewHub()
	reg := NewStaticRegistry()
	src := newSourceEnv(b, reg, hub)
	req := newRequester(b)
	configureInterop(b, src, req)
	_, _ = src.admin.Submit("docs", "PutDoc", []byte("bl-77"), []byte("doc"))
	hub.Attach("stl-relay", src.relay)
	reg.Register("tradelens", "stl-relay")
	dest := New("we-trade", reg, hub)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nonce, _ := cryptoutil.NewNonce()
		q := &wire.Query{
			RequestingNetwork: "we-trade", TargetNetwork: "tradelens",
			Ledger: "default", Contract: "docs", Function: "GetDoc",
			Args: [][]byte{[]byte("bl-77")}, PolicyExpr: "AND('seller-org','carrier-org')",
			RequesterCertPEM: req.certPEM, Nonce: nonce,
		}
		resp, err := dest.Query(context.Background(), q)
		if err != nil || resp.Error != "" {
			b.Fatal(respError(resp, err))
		}
	}
}
