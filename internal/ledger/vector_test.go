package ledger

import (
	"encoding/hex"
	"testing"

	"repro/internal/statedb"
)

// Known-answer vector for the bytes endorsers sign. Every endorsement
// signature covers Transaction.SignedPayload, and the committed transaction
// (with its persisted proof bundle) is found again by the InteropKey inside
// it, so a change to either constant is a format change, never the side
// effect of a refactor.
const (
	vectorSignedPayloadHex = "0a2b696e7465726f702d74782d65363330653965303233323934623736316530383636336533316431313237361207617564697463631a06417070656e642207706f2d313030312207736869707065642a0e636572742d7265717565737465723289010a180a07706f2d313030311004180120012a07617564697463630a180a0572756c6573100220012a0b696e7465726f702d6563630a120a07706f2d313030322a076175646974636312230a07706f2d31303031120f637265617465642c73686970706564220761756469746363121a0a0d706f2d313030312f647261667418012207617564697463633a0f637265617465642c73686970706564421c0a07617564697463631208617070656e6465641a07706f2d313030314a5a77652d7472616465003362633665666534383539616433366430386537646433343439623862363265303661336638383339323934643333343764313632626635656166303430616600706f2d313030312d696e766f6b652d31"
	vectorTxDigestHex      = "49b5e2c85844c8ae53229784a83308df011e8bb9e83f7305d5fca908dfc3b504"
)

// vectorTransaction is an interop invoke with namespaced reads and writes
// across two chaincodes, a delete and an event.
func vectorTransaction() *Transaction {
	return &Transaction{
		ID:          "interop-tx-e630e9e023294b761e08663e31d11276",
		Chaincode:   "auditcc",
		Function:    "Append",
		Args:        [][]byte{[]byte("po-1001"), []byte("shipped")},
		CreatorCert: []byte("cert-requester"),
		RWSet: RWSet{
			Reads: []KVRead{
				{Namespace: "auditcc", Key: "po-1001", Version: statedb.Version{BlockNum: 4, TxNum: 1}, Exists: true},
				{Namespace: "interop-ecc", Key: "rules", Version: statedb.Version{BlockNum: 2}, Exists: true},
				{Namespace: "auditcc", Key: "po-1002"},
			},
			Writes: []KVWrite{
				{Namespace: "auditcc", Key: "po-1001", Value: []byte("created,shipped")},
				{Namespace: "auditcc", Key: "po-1001/draft", IsDelete: true},
			},
		},
		Response: []byte("created,shipped"),
		Event:    &ChaincodeEvent{Chaincode: "auditcc", Name: "appended", Payload: []byte("po-1001")},
		// Requesting network, hex digest of CreatorCert, request ID.
		InteropKey: "we-trade\x003bc6efe4859ad36d08e7dd3449b8b62e06a3f8839294d3347d162bf5eaf040af\x00po-1001-invoke-1",
	}
}

func TestKnownAnswerTransaction(t *testing.T) {
	tx := vectorTransaction()
	if got := hex.EncodeToString(tx.SignedPayload()); got != vectorSignedPayloadHex {
		t.Errorf("SignedPayload bytes changed:\n got %s\nwant %s", got, vectorSignedPayloadHex)
	}
	if got := hex.EncodeToString(tx.Digest()); got != vectorTxDigestHex {
		t.Errorf("Digest changed:\n got %s\nwant %s", got, vectorTxDigestHex)
	}
	// What the committer and the relay attach after endorsement is outside
	// the signed bytes.
	tx.Endorsements = []Endorsement{{PeerName: "peer0", OrgID: "org", CertPEM: []byte("c"), Signature: []byte("s")}}
	tx.UnixNano, tx.ProofBundle, tx.Validation = 1_700_000_000_000_000_000, []byte("sealed"), Valid
	tx.Event.UnixNano = 1_700_000_000_000_000_000
	if got := hex.EncodeToString(tx.SignedPayload()); got != vectorSignedPayloadHex {
		t.Errorf("post-endorsement fields moved the signed payload:\n got %s", got)
	}
}
