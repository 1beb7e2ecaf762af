// Package syscc implements the paper's system contracts (§3.2): the
// Exposure Control Chaincode (ECC), which enforces a source network's
// access-control rules over incoming cross-network queries (responses are
// encrypted to the requester by proof.Builder), and the Configuration
// Management & Data
// Acceptance Chaincode (CMDAC), which records foreign network
// configurations and verification policies and validates incoming proofs.
// Both are ordinary chaincodes: rule and configuration changes are
// transactions subject to the network's own consensus, which is what makes
// exposure and acceptance decisions consensual. Each ECC instance memoises
// one compiled rule set, keyed by the exact rule values its state scan
// returns, so a repeated check skips the decode but never the reads.
package syscc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/chaincode"
	"repro/internal/msp"
	"repro/internal/policy"
	"repro/internal/statedb"
)

// Deployment names for the system contracts.
const (
	// ECCName is the chaincode name of the Exposure Control contract.
	ECCName = "ecc"
	// CMDACName is the chaincode name of the combined Configuration
	// Management & Data Acceptance contract (§4.3: combined for runtime
	// efficiency, since proof verification depends on recorded foreign
	// configurations).
	CMDACName = "cmdac"
)

// ECC function names.
const (
	ECCAddRule      = "AddAccessRule"
	ECCRemoveRule   = "RemoveAccessRule"
	ECCListRules    = "GetAccessRules"
	ECCCheckAccess  = "CheckAccess"
	ECCAuthorize    = "Authorize"
	eccRulesKeyType = "ecc-rule"
)

// Transient keys the relay driver attaches to cross-network queries, as
// chaincode.Interop carries them.
const (
	// TransientInteropFlag marks an invocation as a relayed cross-network
	// query.
	TransientInteropFlag = chaincode.TransientInteropFlag
	// TransientRequestingNetwork carries the requesting network's ID.
	TransientRequestingNetwork = chaincode.TransientRequestingNetwork
	// TransientNonce carries the client's replay nonce.
	TransientNonce = chaincode.TransientNonce
)

var (
	// ErrAccessDenied is returned when no access rule permits a request.
	ErrAccessDenied = errors.New("syscc: access denied")
	// ErrBadArgs is returned for malformed invocation arguments.
	ErrBadArgs = errors.New("syscc: bad arguments")
	// ErrUnknownFunction is returned for unsupported function names.
	ErrUnknownFunction = errors.New("syscc: unknown function")
	// ErrNoConfig is returned by the CMDAC when no configuration is
	// recorded for the named network.
	ErrNoConfig = errors.New("syscc: no recorded configuration")
)

// ECC is the Exposure Control Chaincode.
type ECC struct {
	// rules is the rule set compiled from the last rule scan that decoded,
	// keyed by the exact rule values that scan returned (see loadRules).
	rules atomic.Pointer[ruleMemo]
}

// ruleMemo is one compiled rule set and the stored rule values it was
// decoded from, in scan order.
type ruleMemo struct {
	values [][]byte
	set    *policy.RuleSet
}

// matches reports whether kvs holds exactly the values m was decoded from.
func (m *ruleMemo) matches(kvs []chaincode.KV) bool {
	if len(kvs) != len(m.values) {
		return false
	}
	for i, kv := range kvs {
		if !bytes.Equal(kv.Value, m.values[i]) {
			return false
		}
	}
	return true
}

var _ chaincode.Chaincode = (*ECC)(nil)

// Invoke dispatches ECC functions.
func (e *ECC) Invoke(stub chaincode.Stub) ([]byte, error) {
	switch stub.Function() {
	case ECCAddRule:
		return e.addRule(stub)
	case ECCRemoveRule:
		return e.removeRule(stub)
	case ECCListRules:
		return e.listRules(stub)
	case ECCCheckAccess:
		return e.checkAccess(stub)
	case ECCAuthorize:
		return e.authorize(stub)
	default:
		return nil, fmt.Errorf("%w: ecc.%s", ErrUnknownFunction, stub.Function())
	}
}

// rulesStart and rulesEnd bound the recorded access rules.
var rulesStart, rulesEnd, _ = statedb.CompositeRange(eccRulesKeyType)

func ruleKey(r policy.AccessRule) (string, error) {
	return statedb.CompositeKey(eccRulesKeyType, r.Network, r.Org, r.Chaincode, r.Function)
}

// addRule records an access rule: args = [ruleJSON].
func (e *ECC) addRule(stub chaincode.Stub) ([]byte, error) {
	args := stub.Args()
	if len(args) != 1 {
		return nil, fmt.Errorf("%w: AddAccessRule expects 1 arg", ErrBadArgs)
	}
	rule, err := policy.UnmarshalAccessRule(args[0])
	if err != nil {
		return nil, err
	}
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	key, err := ruleKey(rule)
	if err != nil {
		return nil, err
	}
	if err := stub.PutState(key, args[0]); err != nil {
		return nil, err
	}
	return []byte(rule.String()), nil
}

// removeRule deletes an access rule: args = [ruleJSON].
func (e *ECC) removeRule(stub chaincode.Stub) ([]byte, error) {
	args := stub.Args()
	if len(args) != 1 {
		return nil, fmt.Errorf("%w: RemoveAccessRule expects 1 arg", ErrBadArgs)
	}
	rule, err := policy.UnmarshalAccessRule(args[0])
	if err != nil {
		return nil, err
	}
	key, err := ruleKey(rule)
	if err != nil {
		return nil, err
	}
	existing, err := stub.GetState(key)
	if err != nil {
		return nil, err
	}
	if existing == nil {
		return nil, fmt.Errorf("syscc: rule %s not found", rule)
	}
	return nil, stub.DelState(key)
}

// listRules returns all recorded rules as a JSON array.
func (e *ECC) listRules(stub chaincode.Stub) ([]byte, error) {
	rules, err := e.loadRules(stub)
	if err != nil {
		return nil, err
	}
	return json.Marshal(rules.Rules)
}

// loadRules scans the recorded rules and returns them as a rule set. The
// scan runs on every call, so the invocation's reads are the same whether
// or not the set is memoised; only the decode is skipped when the scan
// returns exactly the values the memoised set was decoded from. The
// returned set is shared and must not be modified. A scan that fails to
// decode is never memoised, so a corrupt rule is refused on every call.
func (e *ECC) loadRules(stub chaincode.Stub) (*policy.RuleSet, error) {
	kvs, err := stub.GetStateRange(rulesStart, rulesEnd)
	if err != nil {
		return nil, err
	}
	if m := e.rules.Load(); m != nil && m.matches(kvs) {
		return m.set, nil
	}
	m := &ruleMemo{values: make([][]byte, len(kvs)), set: &policy.RuleSet{}}
	for i, kv := range kvs {
		rule, err := policy.UnmarshalAccessRule(kv.Value)
		if err != nil {
			return nil, fmt.Errorf("syscc: corrupt rule at %q: %w", kv.Key, err)
		}
		m.set.Rules = append(m.set.Rules, rule)
		m.values[i] = kv.Value // committed values are never rewritten
	}
	e.rules.Store(m)
	return m.set, nil
}

// checkAccess evaluates the rule set: args = [network, org, chaincode,
// function]; returns "true" or "false".
func (e *ECC) checkAccess(stub chaincode.Stub) ([]byte, error) {
	args := stub.Args()
	if len(args) != 4 {
		return nil, fmt.Errorf("%w: CheckAccess expects 4 args", ErrBadArgs)
	}
	rules, err := e.loadRules(stub)
	if err != nil {
		return nil, err
	}
	if rules.Permits(string(args[0]), string(args[1]), string(args[2]), string(args[3])) {
		return []byte("true"), nil
	}
	return []byte("false"), nil
}

// authorize performs the full source-side access decision of §4.3: validate
// the requesting client's certificate against the recorded configuration of
// its network (held by the CMDAC), then check the access rules. Args =
// [requestingNetworkID, requesterCertPEM, chaincodeName, functionName];
// returns the authenticated organization ID.
func (e *ECC) authorize(stub chaincode.Stub) ([]byte, error) {
	args := stub.Args()
	if len(args) != 4 {
		return nil, fmt.Errorf("%w: Authorize expects 4 args", ErrBadArgs)
	}
	// args[0] is the requesting network ID, which is exactly the argument
	// list of CMDAC GetNetworkConfig.
	cfgBytes, err := stub.InvokeChaincode(CMDACName, CMDACGetNetworkConfig, args[:1:1])
	if err != nil {
		return nil, fmt.Errorf("syscc: fetch config for %q: %w", args[0], err)
	}
	verifier, err := msp.VerifierForConfig(cfgBytes)
	if err != nil {
		return nil, err
	}
	info, err := verifier.VerifyPEM(args[1])
	if err != nil {
		return nil, fmt.Errorf("%w: requester certificate: %v", ErrAccessDenied, err)
	}
	rules, err := e.loadRules(stub)
	if err != nil {
		return nil, err
	}
	if !rules.Permits(string(args[0]), info.OrgID, string(args[2]), string(args[3])) {
		return nil, fmt.Errorf("%w: no rule permits <%s, %s, %s, %s>",
			ErrAccessDenied, args[0], info.OrgID, args[2], args[3])
	}
	return chaincode.ReadOnlyBytes(info.OrgID), nil
}
