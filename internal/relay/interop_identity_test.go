package relay

import (
	"strings"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// TestInteropIdentityMatchesJoinedKey holds an invoke's two identities to
// the formulas they were first written as, byte for byte: the interop key
// joins the requesting network, the hex of the requester certificate's
// digest and the request ID with U+0000, and the transaction ID is
// "interop-tx-" and the first 32 hex digits of the joined key's digest.
// Both are persisted (the key in the signed payload, the ID as the TxID),
// so a difference is a format change. The allocation rows hold each
// derivation to the one string it returns; a request ID costs one string
// too.
func TestInteropIdentityMatchesJoinedKey(t *testing.T) {
	joinedKey := func(q *wire.Query) string {
		if q.RequestID == "" {
			return ""
		}
		return q.RequestingNetwork + "\x00" + cryptoutil.DigestHex(q.RequesterCertPEM) + "\x00" + q.RequestID
	}
	joinedTxID := func(q *wire.Query) string {
		key := joinedKey(q)
		if key == "" {
			return ""
		}
		return "interop-tx-" + cryptoutil.DigestHex([]byte(key))[:32]
	}
	cert := []byte(vectorRequesterCertPEM)
	for _, q := range []*wire.Query{
		{RequestID: "po-1001-invoke-1", RequestingNetwork: "we-trade", RequesterCertPEM: cert},
		{RequestID: "r", RequestingNetwork: "", RequesterCertPEM: nil},
		{RequestID: strings.Repeat("long-request-id-", 40), RequestingNetwork: strings.Repeat("net", 100), RequesterCertPEM: cert},
		{RequestID: "a\x00b", RequestingNetwork: "x\x00y", RequesterCertPEM: []byte{0}},
		{RequestID: "", RequestingNetwork: "we-trade", RequesterCertPEM: cert},
	} {
		if got, want := q.InteropKey(), joinedKey(q); got != want {
			t.Errorf("InteropKey(%q) = %q, want %q", q.RequestID, got, want)
		}
		if got, want := InteropTxID(q), joinedTxID(q); got != want {
			t.Errorf("InteropTxID(%q) = %q, want %q", q.RequestID, got, want)
		}
		if q.RequestID != "" {
			if got, want := q.InteropKeySum(), cryptoutil.Sum([]byte(joinedKey(q))); got != want {
				t.Errorf("InteropKeySum(%q) = %x, want %x", q.RequestID, got, want)
			}
		}
	}

	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	q := &wire.Query{RequestID: "po-1001-invoke-1", RequestingNetwork: "we-trade", RequesterCertPEM: cert}
	var sink string
	for _, row := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"InteropKey", 1, func() { sink = q.InteropKey() }},
		{"InteropKeySum", 0, func() { _ = q.InteropKeySum() }},
		{"InteropTxID", 1, func() { sink = InteropTxID(q) }},
		{"newRequestID", 1, func() { sink, _ = newRequestID() }},
	} {
		if got := testing.AllocsPerRun(200, row.fn); got != row.want {
			t.Errorf("%s: %v allocations, want %v", row.name, got, row.want)
		}
	}
	_ = sink
}
