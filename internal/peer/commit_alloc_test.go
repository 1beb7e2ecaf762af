package peer

import (
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/ledger"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

var (
	sinkResponse *ProposalResponse
	sinkTx       *ledger.Transaction
	sinkSig      []byte
)

// TestEndorseAllocations is the allocation tripwire of the endorsement
// side of a commit: a warm Endorse of a one-write proposal, and the
// client's assembly of two endorsers' responses into one transaction. Each
// row counts the calls less the allocations of their signatures, measured
// alone, since those are crypto/ecdsa's and move with the Go release.
// Endorse allocates its simulation frame, the write set (the simulation's
// one write buffer, handed over as it stands) and its value, the response
// and the signature record; assembly the transaction and its endorsement
// list. Neither allocates a transaction to hash or a digest slice. The
// Endorse row was 7 while the simulation buffered its writes in a map and
// copied them out. A change may lower a row, never raise it.
func TestEndorseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	p, _ := newPeerFixture(t, "'org-a'")
	proposal := inv("put", "k", "v")
	// The same proposal simulates to the same digest, so the signature
	// record keeps one entry and never grows.
	first, err := p.Endorse(proposal)
	if err != nil {
		t.Fatalf("Endorse: %v", err)
	}
	second, err := p.Endorse(proposal)
	if err != nil {
		t.Fatalf("Endorse: %v", err)
	}
	responses := []*ProposalResponse{first, second}
	digest := cryptoutil.Sum([]byte("payload"))
	perSign := testing.AllocsPerRun(400, func() {
		sinkSig, _ = cryptoutil.SignDigest(p.identity.Key, digest[:])
	})
	for _, row := range []struct {
		name  string
		signs float64
		max   float64
		fn    func()
	}{
		{"warm Endorse", 1, 5, func() { sinkResponse, _ = p.Endorse(proposal) }},
		{"AssembleTransaction of two responses", 0, 2, func() { sinkTx, _ = AssembleTransaction(proposal, responses) }},
	} {
		got := testing.AllocsPerRun(400, row.fn) - row.signs*perSign
		if got > row.max {
			t.Errorf("%s: %.2f allocations beside %v signatures of %.2f, want <= %v", row.name, got, row.signs, perSign, row.max)
		} else {
			t.Logf("%s: %.2f allocations beside %v signatures of %.2f", row.name, got, row.signs, perSign)
		}
	}
}
