// Package policy implements the two policy stores the paper's system
// contracts enforce (§3.2, §4.3):
//
//   - Access-control rules in the source network, each a
//     <network ID, organization ID, chaincode name, chaincode function>
//     tuple stating that members of a foreign network's organization may
//     invoke a local chaincode function. The Exposure Control contract
//     consults these on every incoming relay query.
//
//   - Verification policies in the destination network, stating which
//     source-network organizations must attest a proof before the Data
//     Acceptance contract will admit the data. Verification policies use
//     the same expression language as endorsement policies.
package policy

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/endorsement"
	"repro/internal/memo"
	"repro/internal/msp"
)

// Wildcard matches any value in an access rule position.
const Wildcard = "*"

// ErrInvalidRule is returned for rules with empty fields.
var ErrInvalidRule = errors.New("policy: invalid access rule")

// AccessRule permits an organization of a foreign network to invoke one
// local chaincode function. Any field may be the "*" wildcard.
type AccessRule struct {
	Network   string `json:"network"`
	Org       string `json:"org"`
	Chaincode string `json:"chaincode"`
	Function  string `json:"function"`
}

// Validate checks that no field is empty.
func (r AccessRule) Validate() error {
	if r.Network == "" || r.Org == "" || r.Chaincode == "" || r.Function == "" {
		return fmt.Errorf("%w: %+v", ErrInvalidRule, r)
	}
	return nil
}

// Matches reports whether the rule covers the given request.
func (r AccessRule) Matches(network, org, chaincodeName, function string) bool {
	return matchField(r.Network, network) &&
		matchField(r.Org, org) &&
		matchField(r.Chaincode, chaincodeName) &&
		matchField(r.Function, function)
}

func matchField(pattern, value string) bool {
	return pattern == Wildcard || pattern == value
}

// String renders the rule in the paper's tuple notation.
func (r AccessRule) String() string {
	return fmt.Sprintf("<%s, %s, %s, %s>", r.Network, r.Org, r.Chaincode, r.Function)
}

// Marshal encodes the rule for ledger storage.
func (r AccessRule) Marshal() ([]byte, error) {
	return json.Marshal(r)
}

// UnmarshalAccessRule decodes a stored rule.
func UnmarshalAccessRule(data []byte) (AccessRule, error) {
	var r AccessRule
	if err := json.Unmarshal(data, &r); err != nil {
		return AccessRule{}, fmt.Errorf("policy: unmarshal access rule: %w", err)
	}
	return r, nil
}

// RuleSet is an ordered collection of access rules.
type RuleSet struct {
	Rules []AccessRule `json:"rules"`
}

// Permits reports whether any rule covers the request.
func (s *RuleSet) Permits(network, org, chaincodeName, function string) bool {
	for _, r := range s.Rules {
		if r.Matches(network, org, chaincodeName, function) {
			return true
		}
	}
	return false
}

// Add appends a rule after validation, deduplicating exact repeats.
func (s *RuleSet) Add(r AccessRule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	for _, existing := range s.Rules {
		if existing == r {
			return nil
		}
	}
	s.Rules = append(s.Rules, r)
	return nil
}

// Remove deletes an exact rule, reporting whether it was present.
func (s *RuleSet) Remove(r AccessRule) bool {
	for i, existing := range s.Rules {
		if existing == r {
			s.Rules = append(s.Rules[:i], s.Rules[i+1:]...)
			return true
		}
	}
	return false
}

// VerificationPolicy states the attestation requirement a destination
// network imposes on data from one source network. Policies can be scoped
// to a chaincode; an empty Chaincode is the network-wide default.
type VerificationPolicy struct {
	Network   string `json:"network"`
	Chaincode string `json:"chaincode,omitempty"`
	Expr      string `json:"expr"`
}

// Validate checks the policy compiles.
func (p VerificationPolicy) Validate() error {
	_, err := p.Compile()
	return err
}

// Compile checks the policy names a network and returns its parsed
// expression, shared with every other caller compiling the same expression
// (endorsement.Parse memoises it).
func (p VerificationPolicy) Compile() (*endorsement.Policy, error) {
	if p.Network == "" {
		return nil, errors.New("policy: verification policy needs a network")
	}
	compiled, err := endorsement.Parse(p.Expr)
	if err != nil {
		return nil, fmt.Errorf("policy: verification expression: %w", err)
	}
	return compiled, nil
}

// Marshal encodes the policy for ledger storage.
func (p VerificationPolicy) Marshal() ([]byte, error) {
	return json.Marshal(p)
}

const (
	// decodedMax bounds the decode memo. Recorded policies are few, but
	// the table must not grow with the number of distinct inputs ever
	// presented.
	decodedMax = 256
	// memoPolicyMax is the longest input the decode memo keeps: the key is
	// the whole input, and JSON admits any amount of padding whitespace.
	memoPolicyMax = 16 << 10
)

var decoded = memo.Table[[]byte, VerificationPolicy]{Max: decodedMax}

// UnmarshalVerificationPolicy decodes a stored verification policy. Each
// distinct input is decoded once per process: the result is memoised by the
// exact input bytes. Failures are not remembered.
func UnmarshalVerificationPolicy(data []byte) (VerificationPolicy, error) {
	if p, ok := decoded.Get(data); ok {
		return p, nil
	}
	var p VerificationPolicy
	if err := json.Unmarshal(data, &p); err != nil {
		return VerificationPolicy{}, fmt.Errorf("policy: unmarshal verification policy: %w", err)
	}
	if len(data) <= memoPolicyMax {
		decoded.Put(string(data), p)
	}
	return p, nil
}

// DeriveFromConsensus constructs a verification policy from a source
// network's endorsement (consensus) policy for a chaincode — the paper's §7
// direction made concrete. The derived policy demands attestations from
// peer identities of exactly the organization structure whose endorsement
// made the data authoritative.
func DeriveFromConsensus(networkID, chaincodeName, endorsementExpr string) (VerificationPolicy, error) {
	parsed, err := endorsement.Parse(endorsementExpr)
	if err != nil {
		return VerificationPolicy{}, fmt.Errorf("policy: consensus policy: %w", err)
	}
	derived := parsed.WithRole(msp.RolePeer)
	vp := VerificationPolicy{Network: networkID, Chaincode: chaincodeName, Expr: derived.String()}
	if err := vp.Validate(); err != nil {
		return VerificationPolicy{}, err
	}
	return vp, nil
}
