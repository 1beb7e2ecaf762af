package msp

import (
	"crypto/x509"
	"errors"
	"fmt"
	"time"

	"repro/internal/memo"
	"repro/internal/wire"
)

const (
	// configVerifiersMax bounds the per-process table of verifiers, one per
	// distinct recorded configuration.
	configVerifiersMax = 64
	// verdictsMax bounds each verifier's table of authenticated
	// certificates.
	verdictsMax = 1024
)

// Verifier authenticates certificates against a set of organization root
// certificates. A destination network constructs a Verifier from the source
// network's recorded configuration to validate proof signers (§3.3, §4.3).
//
// A Verifier remembers each certificate it has authenticated together with
// the validity window of the whole verified chain, so a certificate is
// chain-verified once and afterwards only checked against the clock. A
// refusal is never remembered. It is safe for concurrent use.
//
// A Verifier does not check signatures. Callers check a signer's
// signature with VerifySignature after Verify accepted its certificate;
// that memo is keyed by the certificate DER, digest and signature, since
// ECDSA admits key substitution and a verdict keyed on the digest and
// signature alone would vouch for the signature under a crafted key.
type Verifier struct {
	roots    map[string]*x509.CertPool   // orgID -> pool holding that org's root alone
	now      func() time.Time            // time.Now outside tests
	verdicts memo.Table[[]byte, verdict] // keyed by the certificate's DER bytes
}

// verdict is a successful authentication and the interval over which it
// holds: the intersection of the validity windows of every certificate in
// the verified chain, the root included.
type verdict struct {
	info      CertInfo
	notBefore time.Time
	notAfter  time.Time
}

// NewVerifier builds a Verifier from PEM root certificates keyed by
// organization ID.
func NewVerifier(rootsPEM map[string][]byte) (*Verifier, error) {
	v := &Verifier{
		roots:    make(map[string]*x509.CertPool, len(rootsPEM)),
		now:      time.Now,
		verdicts: memo.Table[[]byte, verdict]{Max: verdictsMax},
	}
	for orgID, pemBytes := range rootsPEM {
		cert, err := ParseCertPEM(pemBytes)
		if err != nil {
			return nil, fmt.Errorf("msp: root for org %q: %w", orgID, err)
		}
		pool := x509.NewCertPool()
		pool.AddCert(cert)
		v.roots[orgID] = pool
	}
	return v, nil
}

var configVerifiers = memo.Table[[]byte, *Verifier]{Max: configVerifiersMax}

// VerifierForConfig returns the Verifier for a recorded network
// configuration (a marshalled wire.NetworkConfig, as the CMDAC stores it).
// Verifiers are memoised by the exact configuration bytes, so every caller
// holding the same recorded configuration shares one instance and its
// verdicts, while a changed configuration is different bytes and therefore
// a different verifier that has authenticated nothing yet.
func VerifierForConfig(cfgBytes []byte) (*Verifier, error) {
	if v, ok := configVerifiers.Get(cfgBytes); ok {
		return v, nil
	}
	cfg, err := wire.UnmarshalNetworkConfig(cfgBytes)
	if err != nil {
		return nil, fmt.Errorf("msp: recorded network config: %w", err)
	}
	roots := make(map[string][]byte, len(cfg.Orgs))
	for _, org := range cfg.Orgs {
		roots[org.OrgID] = org.RootCertPEM
	}
	v, err := NewVerifier(roots)
	if err != nil {
		return nil, err
	}
	configVerifiers.Put(string(cfgBytes), v)
	return v, nil
}

// Orgs returns the organization IDs this verifier knows about.
func (v *Verifier) Orgs() []string {
	orgs := make([]string, 0, len(v.roots))
	for orgID := range v.roots {
		orgs = append(orgs, orgID)
	}
	return orgs
}

// Verify checks that cert chains to the recorded root of the organization
// its subject names and is currently valid, returning the certified name,
// organization and role.
func (v *Verifier) Verify(cert *x509.Certificate) (CertInfo, error) {
	now := v.now()
	if vd, ok := v.verdicts.Get(cert.Raw); ok && !now.Before(vd.notBefore) && !now.After(vd.notAfter) {
		return vd.info, nil
	}
	vd, err := v.verify(cert, now)
	if err != nil {
		return CertInfo{}, err
	}
	v.verdicts.Put(string(cert.Raw), vd)
	return vd.info, nil
}

// verify is the uncached authentication Verify runs on a miss or once a
// remembered verdict's window has passed.
func (v *Verifier) verify(cert *x509.Certificate, now time.Time) (verdict, error) {
	info := CertInfo{Name: cert.Subject.CommonName}
	if len(cert.Subject.Organization) > 0 {
		info.OrgID = cert.Subject.Organization[0]
	}
	if len(cert.Subject.OrganizationalUnit) > 0 {
		role, err := ParseRole(cert.Subject.OrganizationalUnit[0])
		if err == nil {
			info.Role = role
		}
	}
	// The subject only claims an organization; verifying against that
	// organization's root alone is what proves it. Another recorded CA
	// cannot issue a certificate that authenticates as this org.
	root, known := v.roots[info.OrgID]
	if !known {
		return verdict{}, fmt.Errorf("%w: org %q has no recorded root", ErrUnknownIssuer, info.OrgID)
	}
	chains, err := cert.Verify(x509.VerifyOptions{
		Roots:       root,
		CurrentTime: now,
		KeyUsages:   []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
	})
	if err != nil {
		var certErr x509.CertificateInvalidError
		if errors.As(err, &certErr) && certErr.Reason == x509.Expired {
			return verdict{}, ErrExpired
		}
		return verdict{}, fmt.Errorf("%w: %v", ErrUnknownIssuer, err)
	}
	vd := verdict{info: info, notBefore: cert.NotBefore, notAfter: cert.NotAfter}
	for _, link := range chains[0] {
		if link.NotBefore.After(vd.notBefore) {
			vd.notBefore = link.NotBefore
		}
		if link.NotAfter.Before(vd.notAfter) {
			vd.notAfter = link.NotAfter
		}
	}
	return vd, nil
}

// VerifyPEM is Verify over a PEM-encoded certificate.
func (v *Verifier) VerifyPEM(pemBytes []byte) (CertInfo, error) {
	cert, err := ParseCertPEM(pemBytes)
	if err != nil {
		return CertInfo{}, err
	}
	return v.Verify(cert)
}
