// Package deploy defines the on-disk artifacts that let the stand-alone
// binaries (cmd/relayd, cmd/interopctl, cmd/netadmin) cooperate across
// processes: a JSON client kit carrying the requesting client's key pair
// and certificate, the source network's recorded configuration, and the
// verification policy — the same material §3.3 assumes networks exchange
// during interop initialization.
package deploy

import (
	"crypto/ecdsa"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// Well-known file names inside a deployment directory.
const (
	RegistryFile = "registry.json"
	// JournalFile roots the append-only registry journal (plus its
	// generation, pointer, and lock sidecars); a RegistryFile next to it is
	// read as the journal's generation-0 base, which is the in-place
	// migration path from the flat-file registry.
	JournalFile   = "registry.jsonl"
	ClientKitFile = "client-kit.json"
	// RoutesFile records a relay's static multi-hop route table: the
	// targets it forwards toward and the hop TTL it stamps, written by
	// relayd and displayed by `netadmin route list`.
	RoutesFile = "routes.json"
)

// ClientKit is everything a destination-side client needs to issue trusted
// cross-network queries against a running relay.
type ClientKit struct {
	// RequestingNetwork is the client's own network ID.
	RequestingNetwork string `json:"requestingNetwork"`
	// Org is the client's organization within that network.
	Org string `json:"org"`
	// Name is the client identity name.
	Name string `json:"name"`
	// CertPEM is the client certificate (PEM).
	CertPEM []byte `json:"certPem"`
	// KeyPKCS8 is the client private key (PKCS#8 DER, base64 in JSON).
	KeyPKCS8 []byte `json:"keyPkcs8"`
	// SourceNetwork is the network the kit is provisioned to query.
	SourceNetwork string `json:"sourceNetwork"`
	// SourceConfigB64 is the source network's exported configuration
	// (wire.NetworkConfig, base64), used for client-side proof checks.
	SourceConfigB64 string `json:"sourceConfig"`
	// VerificationPolicy is the policy expression the source must satisfy.
	VerificationPolicy string `json:"verificationPolicy"`
	// Ledger, Contract and Function default the query target.
	Ledger   string `json:"ledger"`
	Contract string `json:"contract"`
	Function string `json:"function"`
}

// Key decodes the kit's private key.
func (k *ClientKit) Key() (*ecdsa.PrivateKey, error) {
	return cryptoutil.ParsePrivateKey(k.KeyPKCS8)
}

// SourceConfigBytes returns the recorded source network configuration as
// the marshalled wire.NetworkConfig it was provisioned with.
func (k *ClientKit) SourceConfigBytes() ([]byte, error) {
	raw, err := base64.StdEncoding.DecodeString(k.SourceConfigB64)
	if err != nil {
		return nil, fmt.Errorf("deploy: source config: %w", err)
	}
	return raw, nil
}

// SourceConfig decodes the recorded source network configuration.
func (k *ClientKit) SourceConfig() (*wire.NetworkConfig, error) {
	raw, err := k.SourceConfigBytes()
	if err != nil {
		return nil, err
	}
	return wire.UnmarshalNetworkConfig(raw)
}

// SetSourceConfig encodes the source network configuration into the kit.
func (k *ClientKit) SetSourceConfig(cfg *wire.NetworkConfig) {
	k.SourceConfigB64 = base64.StdEncoding.EncodeToString(cfg.Marshal())
}

// SaveKit writes the kit into dir under the well-known name.
func SaveKit(dir string, kit *ClientKit) error {
	data, err := json.MarshalIndent(kit, "", "  ")
	if err != nil {
		return fmt.Errorf("deploy: encode kit: %w", err)
	}
	path := filepath.Join(dir, ClientKitFile)
	if err := os.WriteFile(path, data, 0o600); err != nil {
		return fmt.Errorf("deploy: write kit: %w", err)
	}
	return nil
}

// LoadKit reads the kit from dir.
func LoadKit(dir string) (*ClientKit, error) {
	path := filepath.Join(dir, ClientKitFile)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("deploy: read kit: %w", err)
	}
	var kit ClientKit
	if err := json.Unmarshal(data, &kit); err != nil {
		return nil, fmt.Errorf("deploy: parse kit: %w", err)
	}
	return &kit, nil
}

// RegistryPath returns the flat registry file path inside a deployment dir.
func RegistryPath(dir string) string {
	return filepath.Join(dir, RegistryFile)
}

// JournalPath returns the registry journal root path inside a deployment
// dir.
func JournalPath(dir string) string {
	return filepath.Join(dir, JournalFile)
}

// RouteSpec is one static route: a target network and the ordered via
// networks whose relays carry requests toward it. It mirrors the relay
// package's route entries without making deploy depend on it.
type RouteSpec struct {
	Target string   `json:"target"`
	Vias   []string `json:"vias"`
}

// RoutesConfig is the on-disk form of a relay's static route table.
type RoutesConfig struct {
	// MaxHops is the hop TTL stamped on routed envelopes (0 = the relay
	// default).
	MaxHops uint64      `json:"max_hops,omitempty"`
	Routes  []RouteSpec `json:"routes"`
}

// RoutesPath returns the route config path inside a deployment dir.
func RoutesPath(dir string) string {
	return filepath.Join(dir, RoutesFile)
}

// SaveRoutes writes the route config into dir under the well-known name.
func SaveRoutes(dir string, cfg *RoutesConfig) error {
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return fmt.Errorf("deploy: encode routes: %w", err)
	}
	if err := os.WriteFile(RoutesPath(dir), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("deploy: write routes: %w", err)
	}
	return nil
}

// LoadRoutes reads the route config from dir.
func LoadRoutes(dir string) (*RoutesConfig, error) {
	data, err := os.ReadFile(RoutesPath(dir))
	if err != nil {
		return nil, fmt.Errorf("deploy: read routes: %w", err)
	}
	var cfg RoutesConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("deploy: parse routes: %w", err)
	}
	return &cfg, nil
}
