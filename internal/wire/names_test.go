package wire

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// TestDecodedNames: the fields that name configured things decode through
// the intern table. A decoded name equals the encoded one, two decodes of
// one name share one string, no decoded string aliases the decode input,
// a name over maxNameLen is copied and not kept, and a flood of distinct
// names leaves the table within its bound.
func TestDecodedNames(t *testing.T) {
	q := &Query{
		RequestID: "req-000017", RequestingNetwork: "we-trade", TargetNetwork: "tradelens", Ledger: "tradelens-ledger",
		Contract: "trade", Function: "GetBillOfLading", Args: [][]byte{[]byte("po-1001")},
		PolicyExpr: "AND('seller-org','carrier-org')", RequesterOrg: "buyer-bank", Nonce: make([]byte, 16),
	}
	resp := &QueryResponse{RequestID: "req-000017", Error: "policy unsatisfied",
		Attestations: []Attestation{{PeerName: "peer0", OrgID: "carrier-org", Signature: make([]byte, 72)}},
		HopPins:      []HopPin{{Network: "hub-1-net", Pin: make([]byte, 32)}}}
	env := &Envelope{Version: ProtocolVersion, Type: MsgQuery, RequestID: "req-000018", Payload: q.Marshal(),
		Route: []string{"we-trade", "hub-1-net"}}
	cfg := &NetworkConfig{NetworkID: "tradelens", Platform: "fabric", Orgs: []OrgConfig{
		{OrgID: "carrier-org", RootCertPEM: make([]byte, 64), PeerNames: []string{"peer0", "peer1"}},
	}}
	md := &Metadata{NetworkID: "tradelens", PeerName: "peer0", OrgID: "carrier-org", QueryDigest: make([]byte, 32)}
	ev := &Event{SubscriptionID: "sub-7", SourceNetwork: "tradelens", Name: "BLIssued", Payload: []byte("{}")}
	sub := &Subscription{SubscriptionID: "sub-7", RequestingNetwork: "we-trade", TargetNetwork: "tradelens", EventName: "BLIssued"}

	// Each decode returns the message's decoded strings: its names, then
	// its per-request strings.
	type decoded struct{ names, others []string }
	cases := []struct {
		name    string
		encoded []byte
		want    decoded
		decode  func([]byte) (decoded, error)
	}{
		{"query", q.Marshal(), decoded{
			[]string{q.RequestingNetwork, q.TargetNetwork, q.Ledger, q.Contract, q.Function, q.PolicyExpr, q.RequesterOrg},
			[]string{q.RequestID}},
			func(buf []byte) (decoded, error) {
				m, err := UnmarshalQuery(buf)
				if err != nil {
					return decoded{}, err
				}
				return decoded{
					[]string{m.RequestingNetwork, m.TargetNetwork, m.Ledger, m.Contract, m.Function, m.PolicyExpr, m.RequesterOrg},
					[]string{m.RequestID}}, nil
			}},
		{"query response", resp.Marshal(), decoded{
			[]string{"peer0", "carrier-org", "hub-1-net"}, []string{resp.RequestID, resp.Error}},
			func(buf []byte) (decoded, error) {
				m, err := UnmarshalQueryResponse(buf)
				if err != nil {
					return decoded{}, err
				}
				a, p := m.Attestations[0], m.HopPins[0]
				return decoded{[]string{a.PeerName, a.OrgID, p.Network}, []string{m.RequestID, m.Error}}, nil
			}},
		{"envelope", env.Marshal(), decoded{env.Route, []string{env.RequestID}},
			func(buf []byte) (decoded, error) {
				m, err := UnmarshalEnvelope(buf)
				if err != nil {
					return decoded{}, err
				}
				return decoded{m.Route, []string{m.RequestID}}, nil
			}},
		{"network config", cfg.Marshal(), decoded{[]string{"tradelens", "fabric", "carrier-org", "peer0", "peer1"}, nil},
			func(buf []byte) (decoded, error) {
				m, err := UnmarshalNetworkConfig(buf)
				if err != nil {
					return decoded{}, err
				}
				o := m.Orgs[0]
				return decoded{append([]string{m.NetworkID, m.Platform, o.OrgID}, o.PeerNames...), nil}, nil
			}},
		{"metadata", md.Marshal(), decoded{[]string{md.NetworkID, md.PeerName, md.OrgID}, nil},
			func(buf []byte) (decoded, error) {
				m, err := UnmarshalMetadata(buf)
				if err != nil {
					return decoded{}, err
				}
				return decoded{[]string{m.NetworkID, m.PeerName, m.OrgID}, nil}, nil
			}},
		{"event", ev.Marshal(), decoded{[]string{ev.SourceNetwork, ev.Name}, []string{ev.SubscriptionID}},
			func(buf []byte) (decoded, error) {
				m, err := UnmarshalEvent(buf)
				if err != nil {
					return decoded{}, err
				}
				return decoded{[]string{m.SourceNetwork, m.Name}, []string{m.SubscriptionID}}, nil
			}},
		{"subscription", sub.Marshal(), decoded{
			[]string{sub.RequestingNetwork, sub.TargetNetwork, sub.EventName}, []string{sub.SubscriptionID}},
			func(buf []byte) (decoded, error) {
				m, err := UnmarshalSubscription(buf)
				if err != nil {
					return decoded{}, err
				}
				return decoded{[]string{m.RequestingNetwork, m.TargetNetwork, m.EventName}, []string{m.SubscriptionID}}, nil
			}},
	}
	for _, c := range cases {
		first, second := bytes.Clone(c.encoded), bytes.Clone(c.encoded)
		got, err := c.decode(first)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		again, err := c.decode(second)
		if err != nil {
			t.Fatalf("%s: second decode: %v", c.name, err)
		}
		if !slices.Equal(got.names, c.want.names) || !slices.Equal(got.others, c.want.others) {
			t.Fatalf("%s: decoded %q %q, want %q %q", c.name, got.names, got.others, c.want.names, c.want.others)
		}
		for i, s := range got.names {
			if unsafe.StringData(s) != unsafe.StringData(again.names[i]) {
				t.Errorf("%s: name %q decoded twice is two strings", c.name, s)
			}
		}
		for _, buf := range [][]byte{first, second} {
			for i := range buf {
				buf[i] ^= 0xFF
			}
		}
		for _, d := range []decoded{got, again} {
			if !slices.Equal(d.names, c.want.names) || !slices.Equal(d.others, c.want.others) {
				t.Fatalf("%s: writing the decode input changed the decoded strings to %q %q", c.name, d.names, d.others)
			}
		}
	}

	// The longest name the table keeps, and one byte more.
	for _, n := range []int{maxNameLen, maxNameLen + 1} {
		long := &Metadata{NetworkID: strings.Repeat("n", n)}
		a, errA := UnmarshalMetadata(long.Marshal())
		b, errB := UnmarshalMetadata(long.Marshal())
		if errA != nil || errB != nil || a.NetworkID != long.NetworkID || b.NetworkID != long.NetworkID {
			t.Fatalf("%d-byte name: decoded %q, %q (%v, %v)", n, a.NetworkID, b.NetworkID, errA, errB)
		}
		_, kept := names.Get([]byte(long.NetworkID))
		shared := unsafe.StringData(a.NetworkID) == unsafe.StringData(b.NetworkID)
		if wantKept := n <= maxNameLen; kept != wantKept || shared != wantKept {
			t.Errorf("%d-byte name: kept %v and shared %v, want %v (limit %d)", n, kept, shared, wantKept, maxNameLen)
		}
	}

	// A peer naming a fresh network in every message, each of the longest
	// length the table keeps. The table is measured the first time it is
	// full.
	var full int64
	base := liveHeap()
	for i := range 10 * namesMax {
		pin := &HopPin{Network: fmt.Sprintf("%0*d", maxNameLen, i)}
		got, err := UnmarshalHopPin(pin.Marshal())
		if err != nil || got.Network != pin.Network {
			t.Fatalf("flood name %d: decoded %q, %v", i, got.Network, err)
		}
		n := names.Len()
		if n > namesMax {
			t.Fatalf("the intern table holds %d names after %d distinct ones, want ≤ %d", n, i+1, namesMax)
		}
		if n == namesMax && full == 0 {
			full = liveHeap() - base
		}
	}
	t.Logf("a full intern table of %d %d-byte names holds %d KiB of heap (%d B a name)",
		namesMax, maxNameLen, full>>10, full/namesMax)
	if full > 512<<10 {
		t.Errorf("a full intern table holds %d KiB, want ≤ 512 KiB", full>>10)
	}
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestMemoInternAllocations: interning a name the table does not hold
// costs one allocation, the string it returns, which the table keeps as
// both its key and its value; a name it holds costs none. The map's own
// growth as names arrive is under one allocation a name.
func TestMemoInternAllocations(t *testing.T) {
	const runs = 200
	// Names no earlier run of the test interned, one more than runs:
	// AllocsPerRun calls once to warm up.
	internRound++
	fresh := make([][]byte, runs+1)
	for i := range fresh {
		fresh[i] = fmt.Appendf(nil, "intern-alloc-%d-%d", internRound, i)
	}
	next := 0
	if got := testing.AllocsPerRun(runs, func() {
		sinkName = Intern(fresh[next])
		next++
	}); got != 1 {
		t.Errorf("interning a new name: %v allocations, want 1", got)
	}
	known := fresh[runs]
	Intern(known)
	if got := testing.AllocsPerRun(runs, func() { sinkName = Intern(known) }); got != 0 {
		t.Errorf("interning a known name: %v allocations, want 0", got)
	}
}

var (
	sinkName    string
	internRound int
)
