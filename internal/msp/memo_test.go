package msp

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// testCA self-signs a root for org valid over [notBefore, notAfter].
func testCA(t testing.TB, org string, notBefore, notAfter time.Time) *CA {
	t.Helper()
	key, err := cryptoutil.GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: org + "-ca", Organization: []string{org}},
		NotBefore:             notBefore,
		NotAfter:              notAfter,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatalf("self-sign: %v", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatalf("parse root: %v", err)
	}
	return &CA{orgID: org, key: key, cert: cert, pem: encodeCertPEM(cert), serial: 1}
}

// testLeaf has ca sign a peer certificate whose subject claims
// subjectOrg, which need not be the CA's own organization.
func testLeaf(t testing.TB, ca *CA, subjectOrg string, notBefore, notAfter time.Time) []byte {
	t.Helper()
	key, err := cryptoutil.GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	return testLeafForKey(t, ca, subjectOrg, &key.PublicKey, 2, notBefore, notAfter)
}

func testLeafForKey(t testing.TB, ca *CA, subjectOrg string, pub *ecdsa.PublicKey, serial int64, notBefore, notAfter time.Time) []byte {
	t.Helper()
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(serial),
		Subject: pkix.Name{
			CommonName:         "peer0",
			Organization:       []string{subjectOrg},
			OrganizationalUnit: []string{roleOU(RolePeer)},
		},
		NotBefore:   notBefore,
		NotAfter:    notAfter,
		KeyUsage:    x509.KeyUsageDigitalSignature,
		ExtKeyUsage: []x509.ExtKeyUsage{x509.ExtKeyUsageClientAuth},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cert, pub, ca.key)
	if err != nil {
		t.Fatalf("issue leaf: %v", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatalf("parse leaf: %v", err)
	}
	return encodeCertPEM(cert)
}

// A recorded CA must not be able to mint identities of another recorded
// organization: org-b's root is trusted, but only for org-b subjects.
func TestVerifierRejectsCrossOrgSubject(t *testing.T) {
	caA, _ := NewCA("org-a")
	caB, _ := NewCA("org-b")
	v, err := NewVerifier(map[string][]byte{"org-a": caA.RootCertPEM(), "org-b": caB.RootCertPEM()})
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	now := time.Now()
	forged := testLeaf(t, caB, "org-a", now.Add(-time.Hour), now.Add(time.Hour))
	if info, err := v.VerifyPEM(forged); !errors.Is(err, ErrUnknownIssuer) {
		t.Fatalf("certificate issued by org-b's CA authenticated as %+v (err %v)", info, err)
	}
	honest := testLeaf(t, caB, "org-b", now.Add(-time.Hour), now.Add(time.Hour))
	if info, err := v.VerifyPEM(honest); err != nil || info.OrgID != "org-b" {
		t.Fatalf("org-b's own certificate: %+v, %v", info, err)
	}
}

// A verifier that has already answered must give the answer a freshly built
// one gives, for every input class and at every clock reading — including
// once the leaf's remembered verdict has outlived the root that backs it.
func TestMemoisedVerifierMatchesFresh(t *testing.T) {
	t0 := time.Now().Truncate(time.Second)
	day := 24 * time.Hour
	caA := testCA(t, "org-a", t0.Add(-day), t0.Add(100*day))
	caB := testCA(t, "org-b", t0.Add(-day), t0.Add(100*day))
	shortRoot := testCA(t, "org-short", t0.Add(-day), t0.Add(10*day))
	unrecorded := testCA(t, "org-a", t0.Add(-day), t0.Add(100*day))
	roots := map[string][]byte{
		"org-a":     caA.RootCertPEM(),
		"org-b":     caB.RootCertPEM(),
		"org-short": shortRoot.RootCertPEM(),
	}

	var clock time.Time
	now := func() time.Time { return clock }
	warm, err := NewVerifier(roots)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	warm.now = now

	cases := []struct {
		name   string
		pem    []byte
		at     []time.Duration // clock readings relative to t0, in order
		expect []error         // nil = authenticated
	}{
		{"valid", testLeaf(t, caA, "org-a", t0.Add(-day), t0.Add(50*day)),
			[]time.Duration{0, day}, []error{nil, nil}},
		{"wrong root", testLeaf(t, unrecorded, "org-a", t0.Add(-day), t0.Add(50*day)),
			[]time.Duration{0, 0}, []error{ErrUnknownIssuer, ErrUnknownIssuer}},
		{"cross-org subject", testLeaf(t, caB, "org-a", t0.Add(-day), t0.Add(50*day)),
			[]time.Duration{0, 0}, []error{ErrUnknownIssuer, ErrUnknownIssuer}},
		{"garbage PEM", []byte("not pem"),
			[]time.Duration{0, 0}, []error{errAny, errAny}},
		{"wrong block", []byte("-----BEGIN PUBLIC KEY-----\naGk=\n-----END PUBLIC KEY-----\n"),
			[]time.Duration{0, 0}, []error{errAny, errAny}},
		{"not yet valid, then valid", testLeaf(t, caA, "org-a", t0.Add(2*day), t0.Add(50*day)),
			[]time.Duration{0, 3 * day, 0}, []error{ErrExpired, nil, ErrExpired}},
		{"leaf expires after a hit", testLeaf(t, caA, "org-a", t0.Add(-day), t0.Add(5*day)),
			[]time.Duration{0, day, 6 * day, day}, []error{nil, nil, ErrExpired, nil}},
		{"root expires while the leaf's verdict is cached", testLeaf(t, shortRoot, "org-short", t0.Add(-day), t0.Add(50*day)),
			[]time.Duration{0, 9 * day, 11 * day}, []error{nil, nil, ErrExpired}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i, offset := range tc.at {
				clock = t0.Add(offset)
				fresh, err := NewVerifier(roots)
				if err != nil {
					t.Fatalf("NewVerifier: %v", err)
				}
				fresh.now = now
				wantInfo, wantErr := fresh.VerifyPEM(tc.pem)
				gotInfo, gotErr := warm.VerifyPEM(tc.pem)
				if gotInfo != wantInfo || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("step %d (t0%+v): memoised = (%+v, %v), fresh = (%+v, %v)",
						i, offset, gotInfo, gotErr, wantInfo, wantErr)
				}
				switch want := tc.expect[i]; {
				case want == nil && gotErr != nil:
					t.Fatalf("step %d (t0%+v): refused: %v", i, offset, gotErr)
				case want == errAny && gotErr == nil:
					t.Fatalf("step %d (t0%+v): accepted %+v", i, offset, gotInfo)
				case want != nil && want != errAny && !errors.Is(gotErr, want):
					t.Fatalf("step %d (t0%+v): err = %v, want %v", i, offset, gotErr, want)
				}
			}
		})
	}
}

// errAny marks a table step that must fail with no particular sentinel.
var errAny = errors.New("any error")

// More distinct certificates and configurations than a table holds must
// leave every table at or under its bound, and keep answering correctly.
func TestMemoTablesStayBounded(t *testing.T) {
	ca, _ := NewCA("org")
	v, err := NewVerifier(map[string][]byte{"org": ca.RootCertPEM()})
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	key, _ := cryptoutil.GenerateKey()
	now := time.Now()
	flood := max(parsedCertsMax, verdictsMax) + 64
	for i := 0; i < flood; i++ {
		certPEM := testLeafForKey(t, ca, "org", &key.PublicKey, int64(i+2), now.Add(-time.Hour), now.Add(time.Hour))
		if _, err := v.VerifyPEM(certPEM); err != nil {
			t.Fatalf("certificate %d: %v", i, err)
		}
		if n := parsedCerts.Len(); n > parsedCertsMax {
			t.Fatalf("parse memo holds %d > %d after %d certificates", n, parsedCertsMax, i+1)
		}
		if n := v.verdicts.Len(); n > verdictsMax {
			t.Fatalf("verdict table holds %d > %d after %d certificates", n, verdictsMax, i+1)
		}
	}

	for i := 0; i < configVerifiersMax+8; i++ {
		cfg := wire.NetworkConfig{
			NetworkID: fmt.Sprintf("net-%d", i),
			Orgs:      []wire.OrgConfig{{OrgID: "org", RootCertPEM: ca.RootCertPEM()}},
		}
		if _, err := VerifierForConfig(cfg.Marshal()); err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if n := configVerifiers.Len(); n > configVerifiersMax {
			t.Fatalf("verifier memo holds %d > %d after %d configs", n, configVerifiersMax, i+1)
		}
	}

	// Every distinct (certificate, digest, signature) that verifies is a
	// new key; the signature memo stays at or under its bound.
	id, _ := ca.Issue("signer", RolePeer)
	digest := make([]byte, cryptoutil.DigestSize)
	for i := 0; i < verifiedSigsMax+64; i++ {
		digest[0], digest[1] = byte(i), byte(i>>8)
		sig, err := cryptoutil.SignDigest(id.Key, digest)
		if err != nil {
			t.Fatalf("SignDigest: %v", err)
		}
		if err := VerifySignature(id.Cert, digest, sig); err != nil {
			t.Fatalf("signature %d: %v", i, err)
		}
		if n := verifiedSigs.Len(); n > verifiedSigsMax {
			t.Fatalf("signature memo holds %d > %d after %d signatures", n, verifiedSigsMax, i+1)
		}
	}

	// An input padded past memoPEMMax still parses but is not kept: its key
	// would be the padding.
	padder, _ := ca.Issue("padded", RoleClient)
	padded := append(bytes.Clone(padder.CertPEM()), bytes.Repeat([]byte{'\n'}, memoPEMMax)...)
	if _, err := ParseCertPEM(padded); err != nil {
		t.Fatalf("padded PEM: %v", err)
	}
	if _, kept := parsedCerts.Get(padded); kept {
		t.Fatal("parse memo kept an oversized input")
	}
}

// Same configuration bytes, same verifier; changed bytes, a verifier that
// has authenticated nothing and no longer trusts the dropped org.
func TestVerifierForConfigIsContentAddressed(t *testing.T) {
	caA, _ := NewCA("org-a")
	caB, _ := NewCA("org-b")
	idB, _ := caB.Issue("peer0", RolePeer)
	both := wire.NetworkConfig{NetworkID: "n", Orgs: []wire.OrgConfig{
		{OrgID: "org-a", RootCertPEM: caA.RootCertPEM()},
		{OrgID: "org-b", RootCertPEM: caB.RootCertPEM()},
	}}
	onlyA := wire.NetworkConfig{NetworkID: "n", Orgs: both.Orgs[:1]}

	v1, err := VerifierForConfig(both.Marshal())
	if err != nil {
		t.Fatalf("VerifierForConfig: %v", err)
	}
	if v2, _ := VerifierForConfig(both.Marshal()); v2 != v1 {
		t.Fatal("equal configuration bytes built two verifiers")
	}
	if _, err := v1.VerifyPEM(idB.CertPEM()); err != nil {
		t.Fatalf("org-b under the two-org config: %v", err)
	}
	v3, err := VerifierForConfig(onlyA.Marshal())
	if err != nil {
		t.Fatalf("VerifierForConfig: %v", err)
	}
	if v3 == v1 {
		t.Fatal("changed configuration reused the old verifier")
	}
	if _, err := v3.VerifyPEM(idB.CertPEM()); !errors.Is(err, ErrUnknownIssuer) {
		t.Fatalf("org-b after being dropped from the config: err = %v", err)
	}
	if _, err := VerifierForConfig([]byte{0xFF, 0xFF}); err == nil {
		t.Fatal("garbage configuration accepted")
	}
}

// Run with -race: parse, verifier lookup, certificate verdicts and
// signature verdicts from 8 goroutines, with the verdict tables shrunk below
// the number of entries in play so flushes interleave with hits.
func TestMemoConcurrentUse(t *testing.T) {
	ca, _ := NewCA("org")
	other, _ := NewCA("org")
	cfg := wire.NetworkConfig{NetworkID: "race", Orgs: []wire.OrgConfig{{OrgID: "org", RootCertPEM: ca.RootCertPEM()}}}
	cfgBytes := cfg.Marshal()
	var good [][]byte
	for i := 0; i < 8; i++ {
		id, _ := ca.Issue(fmt.Sprintf("peer%d", i), RolePeer)
		good = append(good, id.CertPEM())
	}
	rogue, _ := other.Issue("rogue", RolePeer)
	shared, err := VerifierForConfig(cfgBytes)
	if err != nil {
		t.Fatalf("VerifierForConfig: %v", err)
	}
	shared.verdicts.Max = len(good) / 2
	signer, _ := ca.Issue("signer", RolePeer)
	digests := make([][]byte, len(good))
	sigs := make([][]byte, len(good))
	for i := range digests {
		digests[i] = cryptoutil.Digest([]byte{byte(i)})
		sigs[i], _ = cryptoutil.SignDigest(signer.Key, digests[i])
	}
	defer func(max int) { verifiedSigs.Max = max }(verifiedSigs.Max)
	verifiedSigs.Max = len(sigs) / 2

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v, err := VerifierForConfig(cfgBytes)
				if err != nil {
					t.Errorf("VerifierForConfig: %v", err)
					return
				}
				if _, err := v.VerifyPEM(good[(g+i)%len(good)]); err != nil {
					t.Errorf("VerifyPEM: %v", err)
					return
				}
				if _, err := v.VerifyPEM(rogue.CertPEM()); err == nil {
					t.Error("rogue certificate authenticated")
					return
				}
				if _, err := PublicKeyFromPEM(good[i%len(good)]); err != nil {
					t.Errorf("PublicKeyFromPEM: %v", err)
					return
				}
				j := (g + i) % len(sigs)
				if err := VerifySignature(signer.Cert, digests[j], sigs[j]); err != nil {
					t.Errorf("VerifySignature: %v", err)
					return
				}
				if err := VerifySignature(rogue.Cert, digests[j], sigs[j]); err == nil {
					t.Error("signature accepted under another certificate")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Tripwires for the saving the benchmark measures: authenticating an
// identity seen before must not parse, build or allocate.
func TestWarmPathsDoNotAllocate(t *testing.T) {
	ca, _ := NewCA("org")
	id, _ := ca.Issue("peer0", RolePeer)
	cfg := wire.NetworkConfig{NetworkID: "allocs", Orgs: []wire.OrgConfig{{OrgID: "org", RootCertPEM: ca.RootCertPEM()}}}
	cfgBytes := cfg.Marshal()
	certPEM := id.CertPEM()
	v, err := VerifierForConfig(cfgBytes)
	if err != nil {
		t.Fatalf("VerifierForConfig: %v", err)
	}
	if _, err := v.VerifyPEM(certPEM); err != nil {
		t.Fatalf("VerifyPEM: %v", err)
	}

	if n := testing.AllocsPerRun(100, func() { _, _ = ParseCertPEM(certPEM) }); n != 0 {
		t.Errorf("warm ParseCertPEM allocates %.0f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = v.VerifyPEM(certPEM) }); n > 1 {
		t.Errorf("warm VerifyPEM allocates %.0f objects, want <= 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = VerifierForConfig(cfgBytes) }); n > 1 {
		t.Errorf("warm VerifierForConfig allocates %.0f objects, want <= 1", n)
	}
	digest := cryptoutil.Digest([]byte("warm"))
	sig, _ := cryptoutil.SignDigest(id.Key, digest)
	if err := VerifySignature(id.Cert, digest, sig); err != nil {
		t.Fatalf("VerifySignature: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = VerifySignature(id.Cert, digest, sig) }); n != 0 {
		t.Errorf("warm VerifySignature allocates %.0f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = id.CertPEM(); _ = ca.RootCertPEM() }); n != 0 {
		t.Errorf("CertPEM/RootCertPEM allocate %.0f objects, want 0", n)
	}
}

// A signature verdict is remembered only for the exact certificate, digest
// and signature that verified: a refusal is never kept, and a remembered
// signature is no credential for another certificate or for a signature
// one byte away.
func TestSignatureMemoBindsEveryByte(t *testing.T) {
	ca, _ := NewCA("org")
	signer, _ := ca.Issue("signer", RolePeer)
	other, _ := ca.Issue("other", RolePeer)
	digest := cryptoutil.Digest([]byte("attested metadata"))
	sig, err := cryptoutil.SignDigest(signer.Key, digest)
	if err != nil {
		t.Fatalf("SignDigest: %v", err)
	}

	// Refused under a key that did not sign it, twice: the first refusal
	// left nothing behind.
	for try := 0; try < 2; try++ {
		if err := VerifySignature(other.Cert, digest, sig); !errors.Is(err, cryptoutil.ErrInvalidSignature) {
			t.Fatalf("try %d under the wrong certificate: err = %v", try, err)
		}
	}
	key := signatureKey(other.Cert.Raw, digest, sig)
	if _, kept := verifiedSigs.Get(key[:]); kept {
		t.Fatal("a refused signature was remembered")
	}

	if err := VerifySignature(signer.Cert, digest, sig); err != nil {
		t.Fatalf("genuine signature: %v", err)
	}
	if err := VerifySignature(signer.Cert, digest, sig); err != nil {
		t.Fatalf("remembered signature: %v", err)
	}
	// The same digest and signature under another certificate are a
	// different key, so ECDSA runs and refuses.
	if err := VerifySignature(other.Cert, digest, sig); !errors.Is(err, cryptoutil.ErrInvalidSignature) {
		t.Fatalf("remembered signature under another certificate: err = %v", err)
	}
	for i := range sig {
		flipped := bytes.Clone(sig)
		flipped[i] ^= 0x01
		if err := VerifySignature(signer.Cert, digest, flipped); err == nil {
			t.Fatalf("signature with byte %d flipped accepted after the original verified", i)
		}
	}
	otherDigest := bytes.Clone(digest)
	otherDigest[0] ^= 0x01
	if err := VerifySignature(signer.Cert, otherDigest, sig); err == nil {
		t.Fatal("remembered signature accepted over another digest")
	}
}

// The key frames each part by its length, so moving bytes from one part
// to its neighbour yields another key.
func TestSignatureKeyFramesItsParts(t *testing.T) {
	a := signatureKey([]byte("cert"), []byte("digest"), []byte("sig"))
	for _, parts := range [][3]string{
		{"cer", "tdigest", "sig"},
		{"cert", "diges", "tsig"},
		{"certdigest", "", "sig"},
	} {
		if signatureKey([]byte(parts[0]), []byte(parts[1]), []byte(parts[2])) == a {
			t.Fatalf("%q frames to the same key as (cert, digest, sig)", parts)
		}
	}
}
