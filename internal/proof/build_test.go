package proof

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"errors"
	"runtime"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/endorsement"
	"repro/internal/msp"
	"repro/internal/wire"
)

// buildFixture runs Build over the standard two-org fixture and returns
// everything a caller needs to open and verify the outcome.
func buildFixture(t *testing.T) (spec Spec, resp *respAndSealed, verifier *msp.Verifier) {
	t.Helper()
	_, _, sellerPeer, carrierPeer, v := setup(t)
	q := sampleQuery(t)
	spec, clientKey := testSpec(t, q, []byte(`{"blId":"bl-77"}`))
	attestors := []*msp.Identity{sellerPeer, carrierPeer}
	wireResp := buildOne(t, spec, attestors...)
	sealed := Seal(spec, wireResp.Marshal(), attestors)
	return spec, &respAndSealed{q: q, key: clientKey, resp: wireResp, sealed: sealed}, v
}

type respAndSealed struct {
	q      *wire.Query
	key    *ecdsa.PrivateKey
	resp   *wire.QueryResponse
	sealed *Sealed
}

func TestBuildProducesVerifiableProof(t *testing.T) {
	spec, out, verifier := buildFixture(t)

	bundle, err := OpenResponse(cryptoutil.NewRecipient(out.key), out.q, out.resp)
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}
	if !bytes.Equal(bundle.Result, spec.Result) {
		t.Fatalf("result = %q", bundle.Result)
	}
	if !bytes.Equal(bundle.PolicyDigest, spec.PolicyDigest) {
		t.Fatal("bundle not pinned to the build policy")
	}
	if bundle.UnixNano == 0 {
		t.Fatal("bundle carries no build timestamp")
	}
	vp := endorsement.MustParse(out.q.PolicyExpr)
	if err := Verify(bundle, verifier, vp, spec.QueryDigest, spec.PolicyDigest); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Verification against a different policy pin is refused even though
	// the attestor set would satisfy the expression.
	if err := Verify(bundle, verifier, vp, spec.QueryDigest, PolicyDigest("OR('rogue')")); !errors.Is(err, ErrPolicyDigestMismatch) {
		t.Fatalf("foreign pin accepted: %v", err)
	}
}

func TestSealedRoundTripServesOriginalResponse(t *testing.T) {
	spec, out, _ := buildFixture(t)

	if len(out.sealed.Attestors) != 2 {
		t.Fatalf("attestors = %v", out.sealed.Attestors)
	}
	decoded, err := UnmarshalSealed(out.sealed.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalSealed: %v", err)
	}
	if !bytes.Equal(decoded.QueryDigest, spec.QueryDigest) ||
		!bytes.Equal(decoded.PolicyDigest, spec.PolicyDigest) ||
		decoded.UnixNano != out.sealed.UnixNano {
		t.Fatal("sealed bindings did not round-trip")
	}
	if len(decoded.Attestors) != 2 || decoded.Attestors[0] != out.sealed.Attestors[0] {
		t.Fatalf("attestors did not round-trip: %v", decoded.Attestors)
	}
	// The stored response is the exact artifact Build returned: replaying
	// it decrypts to the identical bundle, no re-signing anywhere.
	replayed, err := decoded.OpenWire()
	if err != nil {
		t.Fatalf("OpenWire: %v", err)
	}
	orig, err := OpenResponse(cryptoutil.NewRecipient(out.key), out.q, out.resp)
	if err != nil {
		t.Fatalf("OpenResponse original: %v", err)
	}
	again, err := OpenResponse(cryptoutil.NewRecipient(out.key), out.q, replayed)
	if err != nil {
		t.Fatalf("OpenResponse replayed: %v", err)
	}
	if !bytes.Equal(orig.Marshal(), again.Marshal()) {
		t.Fatal("replayed sealed response decodes to a different bundle")
	}
}

func TestOpenResponseRefusesForeignPolicyPin(t *testing.T) {
	_, out, _ := buildFixture(t)
	// The relay hands back a proof pinned to a different policy than the
	// query asked for: refused before any signature checking.
	forged := *out.resp
	forged.PolicyDigest = PolicyDigest("OR('rogue')")
	if _, err := OpenResponse(cryptoutil.NewRecipient(out.key), out.q, &forged); !errors.Is(err, ErrPolicyDigestMismatch) {
		t.Fatalf("foreign response pin accepted: %v", err)
	}
}

func TestBundleRoundTripKeepsPins(t *testing.T) {
	_, out, _ := buildFixture(t)
	bundle, err := OpenResponse(cryptoutil.NewRecipient(out.key), out.q, out.resp)
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}
	decoded, err := UnmarshalBundle(bundle.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalBundle: %v", err)
	}
	if !bytes.Equal(decoded.QueryDigest, bundle.QueryDigest) ||
		!bytes.Equal(decoded.PolicyDigest, bundle.PolicyDigest) ||
		decoded.UnixNano != bundle.UnixNano {
		t.Fatal("bundle pins did not survive the round trip")
	}
}

var sinkSignature []byte

// mallocsPerRun is testing.AllocsPerRun without its rounding down: a
// signature's count is not a whole number, and the rows below subtract it.
func mallocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestBuildAllocations is the allocation tripwire of Build: a proof
// allocates its signatures, its AES-GCM ciphers and the bytes that leave
// it, and a fixed handful of objects around them. Each row counts a warm
// build (every session manager already agreed with the requesters) less
// the allocations of its signatures, measured alone, since those are
// crypto/ecdsa's and move with the Go release. The rows read 16.0 and 28.9
// (about 34 and 67 before the builder kept its scaffolding off the heap,
// 18.0 and 33.0 before each attestor's metadata was encoded into the
// envelope it is sealed in), so one allocation more fails. A change may lower a row, never raise it.
func TestBuildAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	_, _, sellerPeer, carrierPeer, _ := setup(t)
	attestors := []*msp.Identity{sellerPeer, carrierPeer}
	digest := cryptoutil.Sum([]byte("payload"))
	perSign := mallocsPerRun(400, func() {
		sinkSignature, _ = cryptoutil.SignDigest(sellerPeer.Key, digest[:])
	})
	b := NewBuilder(0, nil)
	for _, row := range []struct {
		name   string
		window int
		max    float64
	}{
		{"lone build, two attestors", 1, 16.5},
		{"window of 2, two attestors", 2, 29.5},
	} {
		specs := make([]Spec, row.window)
		for i := range specs {
			specs[i], _ = testSpec(t, sampleQuery(t), []byte(`{"blId":"bl-77"}`))
		}
		got := mallocsPerRun(400, func() {
			if _, err := b.Build(context.Background(), specs, attestors); err != nil {
				t.Fatalf("%s: Build: %v", row.name, err)
			}
		}) - float64(len(attestors))*perSign
		if got > row.max {
			t.Errorf("%s: %.2f allocations beside %d signatures of %.2f, want <= %v", row.name, got, len(attestors), perSign, row.max)
		} else {
			t.Logf("%s: %.2f allocations beside %d signatures of %.2f", row.name, got, len(attestors), perSign)
		}
	}
}
