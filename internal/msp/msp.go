// Package msp implements a Membership Service Provider in the Hyperledger
// Fabric sense: each organization operates a certificate authority whose
// root certificate anchors the identities of that organization's peers,
// clients and applications. Networks exchange MSP root certificates during
// interop configuration (recorded on the ledger by the Configuration
// Management contract), which is what lets a destination network
// authenticate the signers of a proof produced by a source network.
//
// Verdicts are remembered per process by the bytes they were derived from:
// parsed certificates by their PEM, certificate-chain verdicts by the
// certificate DER (per Verifier, rechecked against the clock on every
// call), and ECDSA signatures that verified by a digest of the certificate
// DER, signed digest and signature together (VerifySignature). Refusals
// are never remembered.
package msp

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"time"
)

// Role classifies an identity within its organization. Verification and
// endorsement policies refer to principals as "Org.role".
type Role int

const (
	// RolePeer marks an endorsing/committing peer node identity.
	RolePeer Role = iota + 1
	// RoleClient marks an application or end-user identity.
	RoleClient
	// RoleAdmin marks an organization administrator identity.
	RoleAdmin
)

// String returns the lowercase role name used in policy expressions.
func (r Role) String() string {
	switch r {
	case RolePeer:
		return "peer"
	case RoleClient:
		return "client"
	case RoleAdmin:
		return "admin"
	default:
		return "unknown"
	}
}

// ParseRole converts a policy-expression role name to a Role.
func ParseRole(s string) (Role, error) {
	switch s {
	case "peer":
		return RolePeer, nil
	case "client":
		return RoleClient, nil
	case "admin":
		return RoleAdmin, nil
	default:
		return 0, fmt.Errorf("msp: unknown role %q", s)
	}
}

// roleOID carries the role inside certificates as an organizational unit.
func roleOU(r Role) string { return r.String() }

var (
	// ErrUnknownIssuer is returned when a certificate does not chain to a
	// known CA root.
	ErrUnknownIssuer = errors.New("msp: certificate not issued by a known CA")
	// ErrExpired is returned when a certificate is outside its validity
	// window.
	ErrExpired = errors.New("msp: certificate expired or not yet valid")
)

// CA is a certificate authority for one organization.
type CA struct {
	mu     sync.Mutex
	orgID  string
	key    *ecdsa.PrivateKey
	cert   *x509.Certificate
	pem    []byte // PEM encoding of cert, encoded once
	serial int64
}

// NewCA creates a self-signed root CA for the given organization.
func NewCA(orgID string) (*CA, error) {
	key, err := ecdsa.GenerateKey(defaultCurve(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("msp: generate CA key: %w", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject: pkix.Name{
			CommonName:   orgID + "-ca",
			Organization: []string{orgID},
		},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(10 * 365 * 24 * time.Hour),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("msp: self-sign CA cert: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("msp: parse CA cert: %w", err)
	}
	return &CA{orgID: orgID, key: key, cert: cert, pem: encodeCertPEM(cert), serial: 1}, nil
}

// OrgID returns the organization this CA anchors.
func (ca *CA) OrgID() string { return ca.orgID }

// RootCertPEM returns the PEM encoding of the CA root certificate. This is
// the artifact shared between networks during interop configuration. Every
// call returns the same bytes, which callers must treat as read-only.
func (ca *CA) RootCertPEM() []byte { return ca.pem }

// Issue creates a new identity (key pair plus certificate) for a named
// member of the organization with the given role.
func (ca *CA) Issue(name string, role Role) (*Identity, error) {
	key, err := ecdsa.GenerateKey(defaultCurve(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("msp: generate identity key: %w", err)
	}
	cert, err := ca.IssueForKey(name, role, &key.PublicKey)
	if err != nil {
		return nil, err
	}
	return &Identity{
		Name:  name,
		OrgID: ca.orgID,
		Role:  role,
		Cert:  cert,
		Key:   key,
	}, nil
}

// IssueForKey certifies an externally generated public key. Applications use
// this to obtain a certificate for a locally held key pair, as the SWT
// seller client does in §4.3 for end-to-end confidentiality.
func (ca *CA) IssueForKey(name string, role Role, pub *ecdsa.PublicKey) (*x509.Certificate, error) {
	ca.mu.Lock()
	ca.serial++
	serial := ca.serial
	ca.mu.Unlock()

	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(serial),
		Subject: pkix.Name{
			CommonName:         name,
			Organization:       []string{ca.orgID},
			OrganizationalUnit: []string{roleOU(role)},
		},
		NotBefore:   time.Now().Add(-time.Hour),
		NotAfter:    time.Now().Add(5 * 365 * 24 * time.Hour),
		KeyUsage:    x509.KeyUsageDigitalSignature,
		ExtKeyUsage: []x509.ExtKeyUsage{x509.ExtKeyUsageClientAuth},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cert, pub, ca.key)
	if err != nil {
		return nil, fmt.Errorf("msp: issue certificate: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("msp: parse issued cert: %w", err)
	}
	return cert, nil
}

func defaultCurve() elliptic.Curve { return elliptic.P256() }
