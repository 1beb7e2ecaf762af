package syscc

import (
	"fmt"
	"sync"

	"repro/internal/chaincode"
	"repro/internal/wire"
)

// IsRelayQuery reports whether the current invocation arrived through a
// relay as a cross-network query.
func IsRelayQuery(stub chaincode.Stub) bool {
	return stub.GetTransient(TransientInteropFlag) != nil
}

// AuthorizeRelayRequest is the source-side adaptation helper (§5 "ease of
// adaptation"): a chaincode function that exposes data cross-network calls
// this once at its top. For relayed invocations it asks the ECC to
// authenticate the requester against the recorded foreign-network
// configuration and to check the access rules; local invocations pass
// through untouched. It returns the authorized foreign organization ID, or
// "" for local calls.
func AuthorizeRelayRequest(stub chaincode.Stub, chaincodeName string) (string, error) {
	if !IsRelayQuery(stub) {
		return "", nil
	}
	requestingNet := stub.GetTransient(TransientRequestingNetwork)
	if len(requestingNet) == 0 {
		return "", fmt.Errorf("%w: relay query without requesting network", ErrAccessDenied)
	}
	// The names are views of their strings: the ECC only reads its
	// arguments and keeps none of them, and the stub restores the caller's
	// when the call returns, so the list goes back to the pool after it.
	args := authorizeArgs.Get().(*[4][]byte)
	*args = [4][]byte{requestingNet, stub.CreatorCert(), chaincode.ReadOnlyBytes(chaincodeName), chaincode.ReadOnlyBytes(stub.Function())}
	org, err := stub.InvokeChaincode(ECCName, ECCAuthorize, args[:])
	*args = [4][]byte{}
	authorizeArgs.Put(args)
	if err != nil {
		return "", err
	}
	return wire.Intern(org), nil
}

// authorizeArgs holds AuthorizeRelayRequest's ECC argument lists, which
// escape through the Stub interface call.
var authorizeArgs = sync.Pool{New: func() any { return new([4][]byte) }}

// ValidateProofArgs assembles the argument list for a CMDAC ValidateProof
// invocation. Destination chaincode uses it as:
//
//	result, err := stub.InvokeChaincode(syscc.CMDACName, syscc.CMDACValidateProof,
//	    syscc.ValidateProofArgs("tradelens", "default", "TradeLensCC",
//	        "GetBillOfLading", bundleBytes, []byte(poRef)))
//
// The four names are views of their strings (chaincode.ReadOnlyBytes), read
// only, like every argument, so the list is the call's one allocation.
func ValidateProofArgs(sourceNetwork, ledgerName, contract, function string, bundleBytes []byte, queryArgs ...[]byte) [][]byte {
	args := make([][]byte, 0, 5+len(queryArgs))
	args = append(args, chaincode.ReadOnlyBytes(sourceNetwork), chaincode.ReadOnlyBytes(ledgerName),
		chaincode.ReadOnlyBytes(contract), chaincode.ReadOnlyBytes(function), bundleBytes)
	return append(args, queryArgs...)
}
