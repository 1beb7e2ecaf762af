// Package ledger defines the transaction, block and block-store structures
// of the simulated permissioned ledger. Blocks are hash-chained; each
// transaction carries the read-write set produced during endorsement-time
// simulation, the endorsing peers' signatures, and a validation code set by
// the committer (execute-order-validate, as in Hyperledger Fabric §4.1 of
// the paper).
//
// Blocks live in memory; the one byte format is a transaction's signed
// payload. Endorsers sign its SHA-256 digest, committers verify that
// digest, and block hashes chain it. Transaction.Digest hashes the payload
// field by field without building it. SignedPayload builds the same bytes
// and is the reference the tests hold Digest to.
package ledger

import "repro/internal/statedb"

// KVRead records that a key was read at a given committed version during
// simulation. A missing key is recorded with Exists=false. Namespace is the
// chaincode whose state space the key belongs to.
type KVRead struct {
	Namespace string
	Key       string
	Version   statedb.Version
	Exists    bool
}

// KVWrite records a pending write produced during simulation, scoped to the
// chaincode namespace that issued it. It is the state database's batch
// entry itself, so a committer applies a write set as it stands.
type KVWrite = statedb.Write

// RWSet is the outcome of simulating a transaction proposal.
type RWSet struct {
	Reads  []KVRead
	Writes []KVWrite
}
