package ledger

import "fmt"

// ValidationCode records the committer's verdict on a transaction.
type ValidationCode int

const (
	// Valid means the transaction passed endorsement-policy and MVCC checks
	// and its writes were applied.
	Valid ValidationCode = iota + 1
	// MVCCConflict means a read version moved between simulation and
	// commit; the transaction was skipped.
	MVCCConflict
	// EndorsementFailure means the endorsement policy was not satisfied.
	EndorsementFailure
	// BadSignature means an endorsement signature did not verify.
	BadSignature
	// Duplicate means a transaction with the same ID (or the same interop
	// request key) was already committed as valid; the transaction was
	// skipped so the original commit remains the only effect. This is the
	// ledger-level anchor of cross-relay exactly-once: two relay processes
	// fronting the same network can each submit the same logical invoke,
	// but only the first commit applies.
	Duplicate
)

// String returns the validation code name.
func (c ValidationCode) String() string {
	switch c {
	case Valid:
		return "valid"
	case MVCCConflict:
		return "mvcc-conflict"
	case EndorsementFailure:
		return "endorsement-failure"
	case BadSignature:
		return "bad-signature"
	case Duplicate:
		return "duplicate"
	default:
		return fmt.Sprintf("validation(%d)", int(c))
	}
}

// Endorsement is one peer's signature over a transaction's simulated
// results.
type Endorsement struct {
	PeerName  string
	OrgID     string
	CertPEM   []byte
	Signature []byte // over the transaction's SignedPayload
}

// ChaincodeEvent is an event emitted during simulation, delivered to
// listeners after the transaction commits as Valid.
type ChaincodeEvent struct {
	Chaincode string
	Name      string
	Payload   []byte
	// UnixNano is the commit time of the transaction that emitted the
	// event, stamped at block delivery. It is not part of the endorsed
	// payload (events are signed as chaincode/name/payload, which every
	// endorser reproduces identically); it exists so subscribers — local
	// and cross-network — can order events from different networks.
	UnixNano uint64
}

// Transaction is an ordered, endorsed chaincode invocation.
type Transaction struct {
	ID           string
	Chaincode    string
	Function     string
	Args         [][]byte
	CreatorCert  []byte // PEM of the submitting client
	RWSet        RWSet
	Response     []byte // chaincode return value from simulation
	Event        *ChaincodeEvent
	Endorsements []Endorsement
	UnixNano     uint64

	// InteropKey is the cross-network exactly-once identity of the interop
	// request that produced this transaction (wire.Query.InteropKey), empty
	// for local transactions. It is part of the signed payload, so a relay
	// cannot re-bind a committed outcome to a different request, and it is
	// indexed by the BlockStore so any relay fronting this network can
	// recover the committed response for a request its sibling executed.
	InteropKey string

	// ProofBundle is the sealed attestation proof (proof.Sealed, marshaled)
	// the relay built for an interop invoke, persisted with the transaction
	// so a replay serves the original proof verbatim instead of re-attesting
	// under whatever peer set exists at replay time. Empty for local
	// transactions. Like Validation it is not part of the signed payload:
	// the proof attests the committed response, it does not alter it, and
	// endorsers sign before the relay attaches it.
	ProofBundle []byte

	// Validation is assigned by the committer; it is not part of the signed
	// payload.
	Validation ValidationCode
}
