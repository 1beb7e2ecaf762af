// Package proof implements the attestation-based proofs that accompany
// cross-network data (§4.3 of the paper). The life of a proof:
//
//  1. Source side: a Builder collects, from each peer selected to satisfy
//     the verification policy, an Attestation — an ECDSA signature over
//     the Merkle root of a window of response Metadata (each binding the
//     query digest, result digest, client nonce, policy pin and attestor
//     identity; a lone query is a one-leaf window) — with the metadata
//     sealed to the requesting client under sessioned ECIES. The query
//     result itself is likewise sealed. An untrusted relay carrying the
//     response can neither read the data nor strip out a usable proof.
//
//  2. Client side: the requesting application decrypts the result and each
//     attestation's metadata, yielding a plaintext Bundle it embeds in its
//     local transaction.
//
//  3. Destination side: every peer validating that transaction checks each
//     attestation's signature and signer against the recorded source
//     network configuration and evaluates the verification policy — the
//     Data Acceptance role of the CMDAC.
package proof

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"repro/internal/cryptoutil"
	"repro/internal/endorsement"
	"repro/internal/msp"
	"repro/internal/wire"
)

var (
	// ErrBadAttestation is returned when an attestation's certificate or
	// signature fails validation.
	ErrBadAttestation = errors.New("proof: invalid attestation")
	// ErrDigestMismatch is returned when metadata does not bind the
	// expected query or result.
	ErrDigestMismatch = errors.New("proof: digest mismatch")
	// ErrNonceMismatch is returned when an attestation carries the wrong
	// nonce.
	ErrNonceMismatch = errors.New("proof: nonce mismatch")
	// ErrWrongNetwork is returned when an attestation names an unexpected
	// source network.
	ErrWrongNetwork = errors.New("proof: wrong source network")
	// ErrPolicyUnsatisfied is returned when the attestor set does not
	// satisfy the verification policy.
	ErrPolicyUnsatisfied = errors.New("proof: verification policy unsatisfied")
	// ErrNotPeer is returned when an attestor certificate is not a peer
	// identity.
	ErrNotPeer = errors.New("proof: attestor is not a peer")
	// ErrPolicyDigestMismatch is returned when a proof's pinned
	// verification-policy digest differs from the policy the verifier
	// expects it to satisfy.
	ErrPolicyDigestMismatch = errors.New("proof: verification policy digest mismatch")
	// ErrPolicyPinMismatch is returned when a query's explicit policy pin
	// disagrees with the policy expression it carries — the requester and
	// the source do not agree on which policy the proof must satisfy, so
	// no proof may be built at all.
	ErrPolicyPinMismatch = errors.New("proof: query policy pin does not match its policy expression")
)

// QueryDigest computes the canonical digest binding a proof to the question
// that was asked: target network, ledger, contract, function, arguments and
// client nonce, as wire fields 1–6. Relay-routing fields are deliberately
// excluded so the digest is recomputable by the destination chaincode. The
// fields are hashed as a wire walk emits them, without being assembled.
func QueryDigest(targetNetwork, ledgerName, contract, function string, args [][]byte, nonce []byte) []byte {
	sum := querySum(targetNetwork, ledgerName, contract, function, args, nonce)
	return sum[:]
}

// querySum is QueryDigest as an array.
func querySum(targetNetwork, ledgerName, contract, function string, args [][]byte, nonce []byte) [cryptoutil.DigestSize]byte {
	w := wire.Hashing(nil)
	w.String(1, &targetNetwork)
	w.String(2, &ledgerName)
	w.String(3, &contract)
	w.String(4, &function)
	w.BytesList(5, &args)
	w.Bytes(6, &nonce)
	return w.Sum()
}

// QueryDigestOf is QueryDigest applied to a wire query.
func QueryDigestOf(q *wire.Query) []byte {
	return QueryDigest(q.TargetNetwork, q.Ledger, q.Contract, q.Function, q.Args, q.Nonce)
}

// QuerySumOf is QueryDigestOf as an array, which a caller that keeps the
// digest only for a while can hold on its stack.
func QuerySumOf(q *wire.Query) [cryptoutil.DigestSize]byte {
	return querySum(q.TargetNetwork, q.Ledger, q.Contract, q.Function, q.Args, q.Nonce)
}

// policyDigestDomain separates policy-expression digests from every other
// digest in the system, so a policy digest can never collide with a query
// or result digest by construction.
var policyDigestDomain = []byte("interop-verification-policy\x00")

// PolicyDigest computes the canonical digest of a verification-policy
// expression — the pin carried in wire.Query/wire.QueryResponse and inside
// each attestation's signed metadata. Requester and responder comparing
// digests (rather than trusting whatever expression travels in the clear)
// is what guarantees a bundle is verified against exactly the policy it was
// built under.
func PolicyDigest(policyExpr string) []byte {
	sum := PolicySum(policyExpr)
	return sum[:]
}

// PolicySum is PolicyDigest as an array, which a caller can hold on its
// stack or inside an allocation of its own.
func PolicySum(policyExpr string) [cryptoutil.DigestSize]byte {
	return cryptoutil.SumString(policyDigestDomain, policyExpr)
}

// PolicyDigestOf returns the query's effective policy pin: the explicit
// PolicyDigest when the requester stamped one, otherwise the digest of the
// policy expression the query carries. Nil when the query has neither, and
// OpenResponse then refuses every response to it.
func PolicyDigestOf(q *wire.Query) []byte {
	if len(q.PolicyDigest) > 0 {
		return q.PolicyDigest
	}
	if q.PolicyExpr != "" {
		return PolicyDigest(q.PolicyExpr)
	}
	return nil
}

// PinnedPolicyDigest is the source-side gate every driver must apply
// before building a proof: it returns the digest of the query's policy
// expression, refusing (ErrPolicyPinMismatch) a query whose explicit pin
// disagrees with that expression. Honoring a mismatched pin would have the
// attestors sign a requester-chosen digest for a policy that never
// selected them. A pin that matches is returned itself: the expected
// digest is computed on the stack, and allocated only for a query that
// carries no pin.
func PinnedPolicyDigest(q *wire.Query) ([]byte, error) {
	if len(q.PolicyDigest) == 0 {
		return PolicyDigest(q.PolicyExpr), nil
	}
	if expect := PolicySum(q.PolicyExpr); !bytes.Equal(q.PolicyDigest, expect[:]) {
		return nil, ErrPolicyPinMismatch
	}
	return q.PolicyDigest, nil
}

// Element is one decrypted attestation inside a Bundle: the attestor
// certificate, the plaintext metadata bytes, and the signature over the
// domain-separated Merkle root (batchSigDigest) the metadata's leaf hash
// chains up to.
type Element struct {
	CertPEM   []byte
	Metadata  []byte // plaintext wire.Metadata
	Signature []byte
	// The root is recomputed from the metadata's leaf hash at BatchIndex
	// of a tree of BatchSize leaves via the BatchPath sibling hashes (see
	// wire.Attestation). A lone build is a one-leaf tree: size 1, index 0,
	// empty path. Size 0 is refused.
	BatchSize  uint64
	BatchIndex uint64
	BatchPath  [][]byte
}

// Bundle is the decrypted, transaction-embeddable form of a proof: the
// plaintext result plus one Element per attestor, bound to the query digest
// and the pinned verification-policy digest, and stamped with when the
// proof was built. The requesting client constructs it from a
// QueryResponse; the destination chaincode validates it via the Data
// Acceptance contract. Built once, it verifies anywhere a recorded source
// configuration and policy are available — no party needs to re-contact the
// source network.
type Bundle struct {
	SourceNetwork string
	Result        []byte
	Nonce         []byte
	Elements      []Element
	// QueryDigest binds the bundle to the question it answers
	// (QueryDigestOf of the originating query).
	QueryDigest []byte
	// PolicyDigest is the verification-policy pin the proof was built
	// under; Verify refuses a bundle without one.
	PolicyDigest []byte
	// UnixNano is when the proof was built (the attestation timestamp).
	UnixNano uint64
}

// Marshal encodes the bundle for use as a transaction argument, in one
// exactly-sized allocation (see wire.Walk).
func (b *Bundle) Marshal() []byte { w := wire.Writing(b.size()); b.walk(&w); return w.Encoded() }

func (b *Bundle) size() int { var c wire.Walk; b.walk(&c); return c.Len() }

func (b *Bundle) walk(w *wire.Walk) {
	w.Name(1, &b.SourceNetwork)
	w.Bytes(2, &b.Result)
	w.Bytes(3, &b.Nonce)
	if w.Encoding() {
		for i := range b.Elements {
			el := &b.Elements[i]
			w.MessageHeader(4, el.size())
			el.walk(w)
		}
	} else if sub, ok := w.Nested(4); ok {
		var el Element
		for w.NextIn(&sub) {
			el.walk(&sub)
		}
		b.Elements = wire.AppendRepeated(w, 4, b.Elements, el)
	}
	w.Bytes(5, &b.QueryDigest)
	w.Bytes(6, &b.PolicyDigest)
	w.Uint(7, &b.UnixNano)
}

func (el *Element) size() int { var c wire.Walk; el.walk(&c); return c.Len() }

func (el *Element) walk(w *wire.Walk) {
	w.Bytes(1, &el.CertPEM)
	w.Bytes(2, &el.Metadata)
	w.Bytes(3, &el.Signature)
	w.Uint(4, &el.BatchSize)
	w.Uint(5, &el.BatchIndex)
	w.BytesList(6, &el.BatchPath)
}

// UnmarshalBundle decodes a bundle that aliases buf: its byte fields,
// Result among them, are views of the input, which nobody may write
// afterwards. Its input is a transaction argument bound for the ledger
// (read-only, like every Stub.Args value) or a file read, so each
// endorser decodes the submitted bytes in place and verifies alone. A
// caller that keeps a field past the call copies it, as PutState does.
func UnmarshalBundle(buf []byte) (*Bundle, error) {
	b, w := &Bundle{}, wire.Decoding(buf)
	for w.Next() {
		b.walk(&w)
	}
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("bundle: %w", err)
	}
	return b, nil
}

// pinned reports whether a carried policy pin is present and equals want.
// An absent pin is refused like a different one: every builder pins.
func pinned(carried, want []byte) bool {
	return len(carried) > 0 && bytes.Equal(carried, want)
}

// OpenResponse decrypts a query response's sessioned envelopes through the
// requesting client's Recipient and assembles the plaintext Bundle. A
// client that keeps one Recipient across queries agrees once per session
// point, so a warm response costs one HKDF expand and one AEAD open per
// envelope. It performs the client's own sanity checks (policy pin, result
// digest binding, nonce echo) so that obviously broken responses are
// rejected before a transaction is attempted; full trust validation happens
// on the destination peers via Verify.
//
// The bundle's QueryDigest, its Result and every element's Metadata share
// one buffer, allocated at its exact size: each is clipped to its own
// length, so an append to one reallocates rather than overwrite the next.
// Its other byte fields alias q and resp.
func OpenResponse(recipient *cryptoutil.Recipient, q *wire.Query, resp *wire.QueryResponse) (*Bundle, error) {
	if resp.Error != "" {
		return nil, fmt.Errorf("proof: remote error: %s", resp.Error)
	}
	wantPolicyDigest := PolicyDigestOf(q)
	if !pinned(resp.PolicyDigest, wantPolicyDigest) {
		return nil, fmt.Errorf("%w: response is not pinned to the query's policy", ErrPolicyDigestMismatch)
	}
	n := cryptoutil.DigestSize + cryptoutil.PlaintextSize(resp.EncryptedResult)
	for i := range resp.Attestations {
		n += cryptoutil.PlaintextSize(resp.Attestations[i].EncryptedMetadata)
	}
	querySum := QuerySumOf(q)
	buf := append(make([]byte, 0, n), querySum[:]...)
	wantQueryDigest := buf[:len(buf):len(buf)]
	buf, err := recipient.Open(buf, resp.SessionEphemeral, resp.SessionGeneration, wantQueryDigest, resp.EncryptedResult)
	if err != nil {
		return nil, fmt.Errorf("proof: decrypt result: %w", err)
	}
	result := buf[len(wantQueryDigest):len(buf):len(buf)]
	wantResultDigest := cryptoutil.Sum(result)
	bundle := &Bundle{
		SourceNetwork: q.TargetNetwork,
		Result:        result,
		Nonce:         q.Nonce,
		QueryDigest:   wantQueryDigest,
		PolicyDigest:  wantPolicyDigest,
		Elements:      make([]Element, 0, len(resp.Attestations)),
	}
	for i := range resp.Attestations {
		att := &resp.Attestations[i]
		start := len(buf)
		buf, err = recipient.Open(buf, att.SessionEphemeral, att.SessionGeneration, wantQueryDigest, att.EncryptedMetadata)
		if err != nil {
			return nil, fmt.Errorf("proof: decrypt metadata of %s: %w", att.PeerName, err)
		}
		plain := buf[start:len(buf):len(buf)]
		md, err := wire.UnmarshalMetadata(plain)
		if err != nil {
			return nil, fmt.Errorf("proof: metadata of %s: %w", att.PeerName, err)
		}
		if !bytes.Equal(md.QueryDigest, wantQueryDigest) {
			return nil, fmt.Errorf("%w: attestation %s query digest", ErrDigestMismatch, att.PeerName)
		}
		if !bytes.Equal(md.ResultDigest, wantResultDigest[:]) {
			return nil, fmt.Errorf("%w: attestation %s result digest", ErrDigestMismatch, att.PeerName)
		}
		if !bytes.Equal(md.Nonce, q.Nonce) {
			return nil, fmt.Errorf("%w: attestation %s", ErrNonceMismatch, att.PeerName)
		}
		if !pinned(md.PolicyDigest, wantPolicyDigest) {
			return nil, fmt.Errorf("%w: attestation %s", ErrPolicyDigestMismatch, att.PeerName)
		}
		if md.UnixNano > bundle.UnixNano {
			bundle.UnixNano = md.UnixNano
		}
		bundle.Elements = append(bundle.Elements, Element{
			CertPEM:    att.CertPEM,
			Metadata:   plain,
			Signature:  att.Signature,
			BatchSize:  att.BatchSize,
			BatchIndex: att.BatchIndex,
			BatchPath:  att.BatchPath,
		})
	}
	return bundle, nil
}

// Verify performs the destination network's Data Acceptance check: every
// attestation must carry a valid signature from a peer identity anchored in
// the recorded source-network configuration, bind the expected query digest
// and nonce, match the bundle's result, and the attestor set must satisfy
// the verification policy.
//
// expectedPolicyDigest is the pin of the policy the verifier is checking
// against (PolicyDigest of its expression). The bundle and every element's
// signed metadata must carry exactly that pin — a bundle built under a
// different policy is refused even if its attestor set would incidentally
// satisfy this one, and so is a bundle that carries no pin at all.
func Verify(b *Bundle, verifier *msp.Verifier, vp *endorsement.Policy, expectedQueryDigest, expectedPolicyDigest []byte) error {
	if vp == nil {
		return fmt.Errorf("%w: no verification policy", ErrPolicyUnsatisfied)
	}
	if !pinned(b.PolicyDigest, expectedPolicyDigest) {
		return fmt.Errorf("%w: bundle is not pinned to the expected policy", ErrPolicyDigestMismatch)
	}
	if len(b.QueryDigest) > 0 && !bytes.Equal(b.QueryDigest, expectedQueryDigest) {
		return fmt.Errorf("%w: bundle query digest", ErrDigestMismatch)
	}
	wantResultDigest := cryptoutil.Sum(b.Result)
	// The usual attestor count fits on the stack; only a refusal copies it.
	var room [4]endorsement.Principal
	signers := room[:0]
	for i := range b.Elements {
		el := &b.Elements[i]
		cert, err := msp.ParseCertPEM(el.CertPEM)
		if err != nil {
			return fmt.Errorf("%w: element %d: %v", ErrBadAttestation, i, err)
		}
		info, err := verifier.Verify(cert)
		if err != nil {
			return fmt.Errorf("%w: element %d: %v", ErrBadAttestation, i, err)
		}
		if info.Role != msp.RolePeer {
			return fmt.Errorf("%w: element %d signed by %s role", ErrNotPeer, i, info.Role)
		}
		// The signature covers the domain-separated Merkle root the
		// metadata's leaf hash chains up to, recomputed from the inclusion
		// proof; a lone build's tree has one leaf and an empty path.
		root, err := merkleRootFromPath(merkleLeafHash(el.Metadata), el.BatchIndex, el.BatchSize, el.BatchPath)
		if err != nil {
			return fmt.Errorf("%w: element %d: %v", ErrBadAttestation, i, err)
		}
		digest := batchSigDigest(root)
		if err := msp.VerifySignature(cert, digest[:], el.Signature); err != nil {
			return fmt.Errorf("%w: element %d: signature: %v", ErrBadAttestation, i, err)
		}
		md, err := wire.UnmarshalMetadata(el.Metadata)
		if err != nil {
			return fmt.Errorf("%w: element %d: metadata", ErrBadAttestation, i)
		}
		if md.NetworkID != b.SourceNetwork {
			return fmt.Errorf("%w: element %d names %q", ErrWrongNetwork, i, md.NetworkID)
		}
		if md.OrgID != info.OrgID {
			return fmt.Errorf("%w: element %d org mismatch", ErrBadAttestation, i)
		}
		if !bytes.Equal(md.QueryDigest, expectedQueryDigest) {
			return fmt.Errorf("%w: element %d query digest", ErrDigestMismatch, i)
		}
		if !bytes.Equal(md.ResultDigest, wantResultDigest[:]) {
			return fmt.Errorf("%w: element %d result digest", ErrDigestMismatch, i)
		}
		if !bytes.Equal(md.Nonce, b.Nonce) {
			return fmt.Errorf("%w: element %d", ErrNonceMismatch, i)
		}
		if !pinned(md.PolicyDigest, expectedPolicyDigest) {
			return fmt.Errorf("%w: element %d", ErrPolicyDigestMismatch, i)
		}
		signers = append(signers, endorsement.Principal{OrgID: info.OrgID, Role: info.Role})
	}
	if !vp.Satisfied(signers) {
		return fmt.Errorf("%w: attestors %v", ErrPolicyUnsatisfied, slices.Clone(signers))
	}
	return nil
}
