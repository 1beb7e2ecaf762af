package syscc

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"unsafe"

	"repro/internal/chaincode"
	"repro/internal/endorsement"
	"repro/internal/msp"
	"repro/internal/policy"
	"repro/internal/proof"
	"repro/internal/statedb"
	"repro/internal/wire"
)

// CMDAC function names.
const (
	CMDACSetNetworkConfig      = "SetNetworkConfig"
	CMDACGetNetworkConfig      = "GetNetworkConfig"
	CMDACListNetworks          = "ListNetworks"
	CMDACSetVerificationPolicy = "SetVerificationPolicy"
	CMDACGetVerificationPolicy = "GetVerificationPolicy"
	CMDACValidateProof         = "ValidateProof"

	cmdacConfigKeyType = "cmdac-config"
	cmdacPolicyKeyType = "cmdac-policy"
	cmdacNonceKeyType  = "cmdac-nonce"
)

// CMDAC is the combined Configuration Management & Data Acceptance
// chaincode.
type CMDAC struct{}

var _ chaincode.Chaincode = (*CMDAC)(nil)

// Invoke dispatches CMDAC functions.
func (c *CMDAC) Invoke(stub chaincode.Stub) ([]byte, error) {
	switch stub.Function() {
	case CMDACSetNetworkConfig:
		return c.setNetworkConfig(stub)
	case CMDACGetNetworkConfig:
		return c.getNetworkConfig(stub)
	case CMDACListNetworks:
		return c.listNetworks(stub)
	case CMDACSetVerificationPolicy:
		return c.setVerificationPolicy(stub)
	case CMDACGetVerificationPolicy:
		return c.getVerificationPolicy(stub)
	case CMDACValidateProof:
		return c.validateProof(stub)
	default:
		return nil, fmt.Errorf("%w: cmdac.%s", ErrUnknownFunction, stub.Function())
	}
}

// setNetworkConfig records a foreign network's identity and topology
// configuration: args = [configBytes] (wire.NetworkConfig).
func (c *CMDAC) setNetworkConfig(stub chaincode.Stub) ([]byte, error) {
	args := stub.Args()
	if len(args) != 1 {
		return nil, fmt.Errorf("%w: SetNetworkConfig expects 1 arg", ErrBadArgs)
	}
	cfg, err := wire.UnmarshalNetworkConfig(args[0])
	if err != nil {
		return nil, fmt.Errorf("syscc: network config: %w", err)
	}
	if cfg.NetworkID == "" {
		return nil, fmt.Errorf("%w: network config without ID", ErrBadArgs)
	}
	if len(cfg.Orgs) == 0 {
		return nil, fmt.Errorf("%w: network config without orgs", ErrBadArgs)
	}
	key, err := statedb.CompositeKey(cmdacConfigKeyType, cfg.NetworkID)
	if err != nil {
		return nil, err
	}
	if err := stub.PutState(key, args[0]); err != nil {
		return nil, err
	}
	return []byte(cfg.NetworkID), nil
}

// getNetworkConfig returns a recorded configuration: args = [networkID].
func (c *CMDAC) getNetworkConfig(stub chaincode.Stub) ([]byte, error) {
	args := stub.Args()
	if len(args) != 1 {
		return nil, fmt.Errorf("%w: GetNetworkConfig expects 1 arg", ErrBadArgs)
	}
	key, err := statedb.CompositeKey(cmdacConfigKeyType, string(args[0]))
	if err != nil {
		return nil, err
	}
	cfg, err := stub.GetState(key)
	if err != nil {
		return nil, err
	}
	if cfg == nil {
		return nil, fmt.Errorf("%w for network %q", ErrNoConfig, args[0])
	}
	return cfg, nil
}

// listNetworks returns the IDs of all recorded foreign networks as JSON.
func (c *CMDAC) listNetworks(stub chaincode.Stub) ([]byte, error) {
	start, end, err := statedb.CompositeRange(cmdacConfigKeyType)
	if err != nil {
		return nil, err
	}
	kvs, err := stub.GetStateRange(start, end)
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(kvs))
	for _, kv := range kvs {
		cfg, err := wire.UnmarshalNetworkConfig(kv.Value)
		if err != nil {
			return nil, fmt.Errorf("syscc: corrupt config at %q: %w", kv.Key, err)
		}
		ids = append(ids, cfg.NetworkID)
	}
	return json.Marshal(ids)
}

// setVerificationPolicy records the acceptance criteria for one source
// network (optionally scoped to a chaincode): args = [policyJSON].
func (c *CMDAC) setVerificationPolicy(stub chaincode.Stub) ([]byte, error) {
	args := stub.Args()
	if len(args) != 1 {
		return nil, fmt.Errorf("%w: SetVerificationPolicy expects 1 arg", ErrBadArgs)
	}
	vp, _, err := policyFromJSON(args[0])
	if err != nil {
		return nil, err
	}
	key, err := statedb.CompositeKey(cmdacPolicyKeyType, vp.Network, vp.Chaincode)
	if err != nil {
		return nil, err
	}
	if err := stub.PutState(key, args[0]); err != nil {
		return nil, err
	}
	return []byte(vp.Expr), nil
}

// getVerificationPolicy returns the policy for (network, chaincode),
// falling back to the network default: args = [networkID, chaincodeName].
func (c *CMDAC) getVerificationPolicy(stub chaincode.Stub) ([]byte, error) {
	args := stub.Args()
	if len(args) != 2 {
		return nil, fmt.Errorf("%w: GetVerificationPolicy expects 2 args", ErrBadArgs)
	}
	return lookupPolicy(stub, args[0], args[1])
}

// lookupPolicy reads the recorded policy for (networkID, chaincodeName),
// falling back to the network default. Both names arrive as invocation
// arguments and become strings only inside the keys.
func lookupPolicy(stub chaincode.Stub, networkID, chaincodeName []byte) ([]byte, error) {
	// Chaincode-specific policy first, then the network-wide default.
	for _, scope := range [2][]byte{chaincodeName, nil} {
		key, err := statedb.CompositeKey(cmdacPolicyKeyType, string(networkID), string(scope))
		if err != nil {
			return nil, err
		}
		data, err := stub.GetState(key)
		if err != nil {
			return nil, err
		}
		if data != nil {
			return data, nil
		}
	}
	return nil, fmt.Errorf("syscc: no verification policy for network %q", networkID)
}

// validateProof is the Data Acceptance check (Fig. 2 step 10). Args =
// [sourceNetwork, ledger, contract, function, bundleBytes, queryArgs...].
// It recomputes the expected query digest from the declared query, loads
// the recorded source configuration and verification policy, verifies every
// attestation, enforces nonce freshness, and returns the verified result.
func (c *CMDAC) validateProof(stub chaincode.Stub) ([]byte, error) {
	args := stub.Args()
	if len(args) < 5 {
		return nil, fmt.Errorf("%w: ValidateProof expects at least 5 args", ErrBadArgs)
	}
	bundle, err := proof.UnmarshalBundle(args[4])
	if err != nil {
		return nil, fmt.Errorf("syscc: proof bundle: %w", err)
	}
	queryArgs := args[5:]

	if bundle.SourceNetwork != string(args[0]) {
		return nil, fmt.Errorf("syscc: bundle names source %q, expected %q",
			bundle.SourceNetwork, args[0])
	}
	// The bundle's own copy of the name, not another one of the argument.
	sourceNetwork := bundle.SourceNetwork

	cfgKey, err := statedb.CompositeKey(cmdacConfigKeyType, sourceNetwork)
	if err != nil {
		return nil, err
	}
	cfgBytes, err := stub.GetState(cfgKey)
	if err != nil {
		return nil, err
	}
	if cfgBytes == nil {
		return nil, fmt.Errorf("%w for network %q", ErrNoConfig, sourceNetwork)
	}
	verifier, err := msp.VerifierForConfig(cfgBytes)
	if err != nil {
		return nil, err
	}

	policyJSON, err := lookupPolicy(stub, args[0], args[2])
	if err != nil {
		return nil, err
	}
	vp, compiled, err := policyFromJSON(policyJSON)
	if err != nil {
		return nil, err
	}

	expectedDigest := proof.QueryDigest(sourceNetwork, string(args[1]), string(args[2]), string(args[3]), queryArgs, bundle.Nonce)
	// The pin check binds the bundle to the policy recorded *here*: a proof
	// built under some other policy expression is refused even when its
	// attestor set would incidentally satisfy the recorded one.
	if err := proof.Verify(bundle, verifier, compiled, expectedDigest, proof.PolicyDigest(vp.Expr)); err != nil {
		return nil, err
	}

	// Replay protection: the client nonce is recorded on the destination
	// ledger; a second transaction presenting the same nonce fails here.
	// The hex lives on the stack unless the nonce is over 32 bytes;
	// CompositeKey never keeps the view.
	var hexRoom [64]byte
	nonceHex := hex.AppendEncode(hexRoom[:0], bundle.Nonce)
	nonceKey, err := statedb.CompositeKey(cmdacNonceKeyType, unsafe.String(unsafe.SliceData(nonceHex), len(nonceHex)))
	if err != nil {
		return nil, err
	}
	seen, err := stub.GetState(nonceKey)
	if err != nil {
		return nil, err
	}
	if seen != nil {
		return nil, fmt.Errorf("syscc: replay detected: nonce already used in tx %s", seen)
	}
	// A view: PutState copies the value it buffers.
	if err := stub.PutState(nonceKey, chaincode.ReadOnlyBytes(stub.TxID())); err != nil {
		return nil, err
	}
	// A view of the bundle argument, read-only like it: a caller that
	// stores the result hands it to PutState, which copies.
	return bundle.Result, nil
}

// policyFromJSON decodes a recorded verification policy and compiles it:
// one decode and one parse per distinct policy bytes in the process, since
// both steps are memoised.
func policyFromJSON(data []byte) (policy.VerificationPolicy, *endorsement.Policy, error) {
	vp, err := policy.UnmarshalVerificationPolicy(data)
	if err != nil {
		return policy.VerificationPolicy{}, nil, err
	}
	compiled, err := vp.Compile()
	if err != nil {
		return policy.VerificationPolicy{}, nil, err
	}
	return vp, compiled, nil
}
