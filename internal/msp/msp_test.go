package msp

import (
	"bytes"
	"crypto/ecdsa"
	"testing"

	"repro/internal/cryptoutil"
)

func TestNewCAAndIssue(t *testing.T) {
	ca, err := NewCA("seller-org")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	if ca.OrgID() != "seller-org" {
		t.Fatalf("OrgID = %q", ca.OrgID())
	}
	id, err := ca.Issue("peer0", RolePeer)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	if id.Name != "peer0" || id.OrgID != "seller-org" || id.Role != RolePeer {
		t.Fatalf("identity fields: %+v", id)
	}
	if id.Cert == nil || id.Key == nil {
		t.Fatal("identity missing cert or key")
	}
}

func TestVerifierAcceptsIssuedIdentity(t *testing.T) {
	ca, _ := NewCA("carrier-org")
	id, _ := ca.Issue("peer1", RolePeer)

	v, err := NewVerifier(map[string][]byte{"carrier-org": ca.RootCertPEM()})
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	info, err := v.Verify(id.Cert)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if info.OrgID != "carrier-org" || info.Name != "peer1" || info.Role != RolePeer {
		t.Fatalf("CertInfo = %+v", info)
	}
}

func TestVerifierRejectsForeignCA(t *testing.T) {
	trusted, _ := NewCA("org-a")
	rogue, _ := NewCA("org-a") // same org name, different root key
	id, _ := rogue.Issue("peer0", RolePeer)

	v, _ := NewVerifier(map[string][]byte{"org-a": trusted.RootCertPEM()})
	if _, err := v.Verify(id.Cert); err == nil {
		t.Fatal("Verify accepted a certificate from an unrecorded CA")
	}
}

func TestVerifierRejectsUnknownOrg(t *testing.T) {
	caA, _ := NewCA("org-a")
	caB, _ := NewCA("org-b")
	idB, _ := caB.Issue("peerB", RolePeer)

	// Only org-a's root is recorded: a subject naming org-b has no root to
	// chain to.
	v, _ := NewVerifier(map[string][]byte{
		"org-a": caA.RootCertPEM(),
	})
	if _, err := v.Verify(idB.Cert); err == nil {
		t.Fatal("Verify accepted a cert with no recorded org root")
	}
}

func TestVerifyPEMRoundTrip(t *testing.T) {
	ca, _ := NewCA("bank-org")
	id, _ := ca.Issue("client7", RoleClient)
	v, _ := NewVerifier(map[string][]byte{"bank-org": ca.RootCertPEM()})
	info, err := v.VerifyPEM(id.CertPEM())
	if err != nil {
		t.Fatalf("VerifyPEM: %v", err)
	}
	if info.Role != RoleClient {
		t.Fatalf("role = %v, want client", info.Role)
	}
}

func TestVerifyPEMGarbage(t *testing.T) {
	ca, _ := NewCA("org")
	v, _ := NewVerifier(map[string][]byte{"org": ca.RootCertPEM()})
	if _, err := v.VerifyPEM([]byte("not pem")); err == nil {
		t.Fatal("VerifyPEM accepted garbage")
	}
}

func TestIdentitySignVerify(t *testing.T) {
	ca, _ := NewCA("org")
	id, _ := ca.Issue("peer0", RolePeer)
	msg := []byte("attestation metadata")
	sig, err := cryptoutil.SignDigest(id.Key, cryptoutil.Digest(msg))
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := cryptoutil.VerifyDigest(&id.Key.PublicKey, cryptoutil.Digest(msg), sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestIssueForKeyExternalKeypair(t *testing.T) {
	ca, _ := NewCA("seller-bank-org")
	key, err := cryptoutil.GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	cert, err := ca.IssueForKey("swt-seller-client", RoleClient, &key.PublicKey)
	if err != nil {
		t.Fatalf("IssueForKey: %v", err)
	}
	certPub, ok := cert.PublicKey.(*ecdsa.PublicKey)
	if !ok || !certPub.Equal(&key.PublicKey) {
		t.Fatal("issued cert does not certify the provided key")
	}
	v, _ := NewVerifier(map[string][]byte{"seller-bank-org": ca.RootCertPEM()})
	if _, err := v.Verify(cert); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestRoleParseRoundTrip(t *testing.T) {
	for _, r := range []Role{RolePeer, RoleClient, RoleAdmin} {
		got, err := ParseRole(r.String())
		if err != nil {
			t.Fatalf("ParseRole(%q): %v", r.String(), err)
		}
		if got != r {
			t.Fatalf("ParseRole(%q) = %v", r.String(), got)
		}
	}
	if _, err := ParseRole("bogus"); err == nil {
		t.Fatal("ParseRole accepted bogus role")
	}
	if Role(99).String() != "unknown" {
		t.Fatal("unknown role String()")
	}
}

func TestCertSerialsUnique(t *testing.T) {
	ca, _ := NewCA("org")
	seen := make(map[string]bool)
	for i := 0; i < 10; i++ {
		id, err := ca.Issue("p", RolePeer)
		if err != nil {
			t.Fatalf("Issue: %v", err)
		}
		s := id.Cert.SerialNumber.String()
		if seen[s] {
			t.Fatalf("duplicate serial %s", s)
		}
		seen[s] = true
	}
}

func TestParseCertPEMRejectsWrongBlock(t *testing.T) {
	if _, err := ParseCertPEM([]byte("-----BEGIN PUBLIC KEY-----\naGk=\n-----END PUBLIC KEY-----\n")); err == nil {
		t.Fatal("ParseCertPEM accepted a non-certificate block")
	}
}

func TestRootCertPEMStable(t *testing.T) {
	ca, _ := NewCA("org")
	if !bytes.Equal(ca.RootCertPEM(), ca.RootCertPEM()) {
		t.Fatal("RootCertPEM not stable")
	}
}

func TestVerifierOrgs(t *testing.T) {
	caA, _ := NewCA("a")
	caB, _ := NewCA("b")
	v, _ := NewVerifier(map[string][]byte{
		"a": caA.RootCertPEM(),
		"b": caB.RootCertPEM(),
	})
	orgs := v.Orgs()
	if len(orgs) != 2 {
		t.Fatalf("Orgs = %v", orgs)
	}
}

func BenchmarkIssueIdentity(b *testing.B) {
	ca, _ := NewCA("org")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ca.Issue("peer", RolePeer); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyCert(b *testing.B) {
	ca, _ := NewCA("org")
	id, _ := ca.Issue("peer", RolePeer)
	v, _ := NewVerifier(map[string][]byte{"org": ca.RootCertPEM()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Verify(id.Cert); err != nil {
			b.Fatal(err)
		}
	}
}
