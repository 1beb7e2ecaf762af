package proof

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/msp"
	"repro/internal/wire"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// hopPinPayload assembles the exact bytes hop i signs: the hop-pin domain,
// then the previous pin, the forwarding relay's network and certificate,
// and the policy pin as wire fields 1–4. It is the reference hopPinDigest
// and the known-answer vector are held to.
func hopPinPayload(prevPin []byte, network string, certPEM, policyDigest []byte) []byte {
	e := wire.NewEncoder(0)
	e.BytesField(1, prevPin)
	e.String(2, network)
	e.BytesField(3, certPEM)
	e.BytesField(4, policyDigest)
	return append(bytes.Clone(hopPinDomain), e.Bytes()...)
}

// hopAnchorReference builds the anchor preimage the way hopAnchor hashes
// it: the anchor domain, then the query digest, the policy pin and the
// digest of the pin-free response encoding as wire fields 1–3.
func hopAnchorReference(queryDigest, policyDigest []byte, resp *wire.QueryResponse) [cryptoutil.DigestSize]byte {
	core := *resp
	core.HopPins = nil
	coreDigest := cryptoutil.Sum(core.Marshal())
	e := wire.NewEncoder(0)
	e.BytesField(1, queryDigest)
	e.BytesField(2, policyDigest)
	e.BytesField(3, coreDigest[:])
	return cryptoutil.Sum(hopAnchorDomain, e.Bytes())
}

// TestHopDigestsMatchEncodings holds the streamed hop-chain digests to
// SHA-256 of the encodings they used to build: the core digest to the
// pin-free Marshal, the anchor to its assembled preimage, for responses
// carrying 0–4 pins and results around the hashing scratch size, and each
// pin digest to Sum(hopPinPayload) over empty, short and long fields.
func TestHopDigestsMatchEncodings(t *testing.T) {
	for depth := 0; depth <= 4; depth++ {
		for _, n := range []int{0, 1, 200, 255, 256, 257, 1000, 20000} {
			f := buildChain(t, depth)
			f.resp.EncryptedResult = bytes.Repeat([]byte{byte(n)}, n)
			f.resp.Attestations = []wire.Attestation{{PeerName: "peer0", CertPEM: make([]byte, n/2), Signature: []byte("sig")}}
			core := *f.resp
			core.HopPins = nil
			if got, want := hopCoreDigest(f.resp), cryptoutil.Sum(core.Marshal()); got != want {
				t.Fatalf("depth %d, result %d: core digest %x, want %x", depth, n, got, want)
			}
			qd, pd := QueryDigestOf(f.q), PolicyDigestOf(f.q)
			if got, want := hopAnchor(qd, pd, f.resp), hopAnchorReference(qd, pd, f.resp); got != want {
				t.Fatalf("depth %d, result %d: anchor %x, want %x", depth, n, got, want)
			}
		}
	}
	long := bytes.Repeat([]byte("certificate "), 60)
	for _, prev := range [][]byte{nil, make([]byte, 32), long} {
		for _, network := range []string{"", "hub-net", string(long)} {
			for _, cert := range [][]byte{nil, []byte("cert"), long} {
				for _, pd := range [][]byte{nil, make([]byte, 32)} {
					if got, want := hopPinDigest(prev, network, cert, pd), cryptoutil.Sum(hopPinPayload(prev, network, cert, pd)); got != want {
						t.Fatalf("prev %d, network %d, cert %d, policy %d bytes: pin digest %x, want %x",
							len(prev), len(network), len(cert), len(pd), got, want)
					}
				}
			}
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes
// one call of f allocates, after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestHopBytesIndependentOfResponseSize is the tripwire of the streamed
// hop chain: what AppendHopPin (first pin and a later one) and a warm
// VerifyHopChain allocate must not grow with the response, so a 64 KiB
// result costs what a 1 KiB one does. Building the response encoding to
// hash it, or computing a later pin's discarded anchor, costs the whole
// response each time.
func TestHopBytesIndependentOfResponseSize(t *testing.T) {
	// slack absorbs what the race detector's pool drops and ECDSA's
	// randomness add; one copy of the larger response is 63 KiB more.
	const slack = 4 << 10
	ca, err := msp.NewCA("hub-x-org")
	if err != nil {
		t.Fatal(err)
	}
	id, err := ca.Issue("hub-x-relay", msp.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(n int) (first, later, verify uint64) {
		f := buildChain(t, 0)
		f.resp.EncryptedResult = make([]byte, n)
		bare := *f.resp
		appendTo := func(base wire.QueryResponse) func() {
			return func() {
				r := base
				r.HopPins = r.HopPins[:len(r.HopPins):len(r.HopPins)]
				if err := AppendHopPin(&r, f.q, "hub-x-net", id); err != nil {
					t.Fatal(err)
				}
			}
		}
		first = bytesPerRun(50, appendTo(bare))
		pinned := bare
		for i := range 2 {
			if err := AppendHopPin(&pinned, f.q, fmt.Sprintf("hub-%d-net", i), id); err != nil {
				t.Fatal(err)
			}
		}
		later = bytesPerRun(50, appendTo(pinned))
		verify = bytesPerRun(50, func() {
			if _, err := VerifyHopChain(f.q, &pinned); err != nil {
				t.Fatal(err)
			}
		})
		return first, later, verify
	}
	f1, l1, v1 := measure(1 << 10)
	f64, l64, v64 := measure(64 << 10)
	for _, row := range []struct {
		name       string
		small, big uint64
	}{
		{"AppendHopPin, first pin", f1, f64},
		{"AppendHopPin, third pin", l1, l64},
		{"warm VerifyHopChain, two pins", v1, v64},
	} {
		if row.big > row.small+slack {
			t.Errorf("%s: %d bytes with a 64 KiB result, %d with 1 KiB", row.name, row.big, row.small)
		} else {
			t.Logf("%s: %d bytes with a 64 KiB result, %d with 1 KiB", row.name, row.big, row.small)
		}
	}
}
