package proof

// Multi-hop path proofs. When a query is answered over a chain of relays
// (origin → hub … → source), the source attestation alone proves what the
// data is, but not which path carried it. Each forwarding relay therefore
// appends a HopPin to the response on the return path: an ECDSA signature
// over a domain-separated payload binding the previous pin (or the chain
// anchor, for the hop adjacent to the source), the relay's network
// identity and certificate, and the pinned verification-policy digest.
// The anchor itself binds the query digest (which includes the client
// nonce, so chains cannot be replayed across requests), the policy pin and
// the digest of the response with the pins stripped — every relay on the
// path and the origin all see the same core bytes, so a hop cannot swap
// the response out from under the chain it extends.
//
// Every relay on the return path, the origin and the client re-derive
// these digests, so none of them builds the bytes it hashes: the response
// core, the anchor preimage and each pin payload go through a hashing
// wire.Walk (the bytes Marshal or a wire encoder would produce, streamed
// into one SHA-256), and a pin is signed by that digest. Only the first
// pin computes the anchor; a later hop links to the pin before it. The
// tests hold each digest to SHA-256 of the assembled bytes.
//
// Verification is structural: each pin must hash-chain onto its
// predecessor and carry a valid signature from the certificate it names.
// Which certificates are acceptable for which hub network is a deployment
// policy (the origin relay checks the hop adjacent to it matches the
// next-hop network it actually forwarded to); anchoring hub certificates
// in recorded configurations the way source attestors are is left to the
// dynamic route discovery follow-on.

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/cryptoutil"
	"repro/internal/msp"
	"repro/internal/wire"
)

var (
	// ErrBadHopChain is returned when a response's hop-pin chain is
	// structurally invalid: a pin that does not chain onto its
	// predecessor, a bad signature, or a repeated network.
	ErrBadHopChain = errors.New("proof: invalid hop chain")
	// ErrHopChainMissing is returned when a response that must have been
	// forwarded (the origin sent it toward a hub) comes back without the
	// expected hop pin.
	ErrHopChainMissing = errors.New("proof: hop chain missing expected hop")
)

// Domain separators keep hop-chain digests and signatures disjoint from
// every other digest and signed payload in the system: a hop pin can never
// be confused with an attestation signature or a policy digest.
var (
	hopAnchorDomain = []byte("interop-hop-anchor\x00")
	hopPinDomain    = []byte("interop-hop-pin\x00")
)

// Hop is one verified element of a response's path, nearest the source
// first.
type Hop struct {
	Network string
	CertPEM []byte
}

// hopCoreDigest digests the response with the hop pins stripped — the
// bytes every relay on the return path and the origin agree on.
func hopCoreDigest(resp *wire.QueryResponse) [cryptoutil.DigestSize]byte {
	core := *resp
	core.HopPins = nil
	return core.Digest()
}

// HopAnchor computes the chain anchor for a (query, response) pair: the
// value the first hop pin's payload links to.
func HopAnchor(q *wire.Query, resp *wire.QueryResponse) []byte {
	anchor := hopAnchor(QueryDigestOf(q), PolicyDigestOf(q), resp)
	return anchor[:]
}

// hopAnchor is HopAnchor from the query's digests, returned as an array.
func hopAnchor(queryDigest, policyDigest []byte, resp *wire.QueryResponse) [cryptoutil.DigestSize]byte {
	sum := hopCoreDigest(resp)
	core := sum[:]
	w := wire.Hashing(hopAnchorDomain)
	w.Bytes(1, &queryDigest)
	w.Bytes(2, &policyDigest)
	w.Bytes(3, &core)
	return w.Sum()
}

// hopPinDigest digests what hop i signs: the hop-pin domain, then the
// previous pin, the forwarding relay's network and certificate, and the
// policy pin, framed unambiguously as wire fields 1–4. It hashes the
// payload as a wire walk emits it, without assembling it.
func hopPinDigest(prevPin []byte, network string, certPEM, policyDigest []byte) [cryptoutil.DigestSize]byte {
	w := wire.Hashing(hopPinDomain)
	w.Bytes(1, &prevPin)
	w.String(2, &network)
	w.Bytes(3, &certPEM)
	w.Bytes(4, &policyDigest)
	return w.Sum()
}

// AppendHopPin extends the response's hop chain with one pin signed by the
// forwarding relay's identity. The relay adjacent to the source appends
// first (linking to the anchor, the only pin that computes it); each
// subsequent relay links to the pin before it. The signature is over the
// pin payload, signed by its digest, which is also the pin. Must be called
// before the response is re-enveloped for the previous hop.
func AppendHopPin(resp *wire.QueryResponse, q *wire.Query, network string, id *msp.Identity) error {
	policyDigest := PolicyDigestOf(q)
	var prev []byte
	if n := len(resp.HopPins); n > 0 {
		prev = resp.HopPins[n-1].Pin
	} else {
		anchor := hopAnchor(QueryDigestOf(q), policyDigest, resp)
		prev = anchor[:]
	}
	pin := hopPinDigest(prev, network, id.CertPEM(), policyDigest)
	sig, err := cryptoutil.SignDigest(id.Key, pin[:])
	if err != nil {
		return fmt.Errorf("proof: sign hop pin: %w", err)
	}
	resp.HopPins = append(resp.HopPins, wire.HopPin{
		Network:   network,
		CertPEM:   id.CertPEM(),
		Pin:       bytes.Clone(pin[:]),
		Signature: sig,
	})
	return nil
}

// VerifyHopChain checks the structural validity of a response's hop chain
// against the query it answers: every pin must equal the digest of its
// reconstructed payload, chain onto its predecessor (the anchor for pin
// 0), carry a valid signature from the certificate it names, and no
// network may appear twice. It returns the verified path, nearest the
// source first — empty (nil, nil) for a pin-free single-hop response.
func VerifyHopChain(q *wire.Query, resp *wire.QueryResponse) ([]Hop, error) {
	if len(resp.HopPins) == 0 {
		return nil, nil
	}
	policyDigest := PolicyDigestOf(q)
	anchor := hopAnchor(QueryDigestOf(q), policyDigest, resp)
	prev := anchor[:]
	seen := make(map[string]bool, len(resp.HopPins))
	hops := make([]Hop, 0, len(resp.HopPins))
	for i := range resp.HopPins {
		pin := &resp.HopPins[i]
		if seen[pin.Network] {
			return nil, fmt.Errorf("%w: network %q pinned twice", ErrBadHopChain, pin.Network)
		}
		seen[pin.Network] = true
		if sum := hopPinDigest(prev, pin.Network, pin.CertPEM, policyDigest); !bytes.Equal(pin.Pin, sum[:]) {
			return nil, fmt.Errorf("%w: hop %d (%s) does not chain", ErrBadHopChain, i, pin.Network)
		}
		cert, err := msp.ParseCertPEM(pin.CertPEM)
		if err != nil {
			return nil, fmt.Errorf("%w: hop %d (%s): %v", ErrBadHopChain, i, pin.Network, err)
		}
		// pin.Pin is the digest of the payload, checked above.
		if err := msp.VerifySignature(cert, pin.Pin, pin.Signature); err != nil {
			return nil, fmt.Errorf("%w: hop %d (%s): signature: %v", ErrBadHopChain, i, pin.Network, err)
		}
		prev = pin.Pin
		hops = append(hops, Hop{Network: pin.Network, CertPEM: pin.CertPEM})
	}
	return hops, nil
}

// VerifyHopChainVia verifies the chain and additionally requires that it
// is non-empty and that its final pin — the hop adjacent to the caller —
// names the given network. The origin relay calls this with the via
// network it actually forwarded to, which is what makes truncating the
// whole chain (or just its tail) detectable: a response that came back
// through a hub must carry that hub's pin on the outside.
func VerifyHopChainVia(q *wire.Query, resp *wire.QueryResponse, via string) ([]Hop, error) {
	hops, err := VerifyHopChain(q, resp)
	if err != nil {
		return nil, err
	}
	if len(hops) == 0 {
		return nil, fmt.Errorf("%w: no pins, expected %q outermost", ErrHopChainMissing, via)
	}
	if last := hops[len(hops)-1].Network; last != via {
		return nil, fmt.Errorf("%w: outermost pin is %q, expected %q", ErrHopChainMissing, last, via)
	}
	return hops, nil
}
