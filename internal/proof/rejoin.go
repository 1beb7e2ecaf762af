package proof

import (
	"fmt"

	"repro/internal/cryptoutil"
	"repro/internal/msp"
	"repro/internal/wire"
)

// MetadataPlain returns the exact plaintext metadata bytes an attestation
// built from spec by the given attestor encrypts — also the leaf content of
// a batched window. It is deterministic in (spec, attestor), which is what
// lets a caller holding the spec reconstruct the plaintext of an already-
// encrypted attestation without decrypting anything.
func MetadataPlain(id *msp.Identity, spec *Spec) []byte {
	md := wire.Metadata{
		NetworkID:    spec.NetworkID,
		PeerName:     id.Name,
		OrgID:        id.OrgID,
		QueryDigest:  spec.QueryDigest,
		ResultDigest: cryptoutil.Digest(spec.Result),
		Nonce:        spec.Nonce,
		UnixNano:     uint64(spec.Now.UnixNano()),
		PolicyDigest: spec.PolicyDigest,
	}
	return md.Marshal()
}

// PlainElements converts a freshly built response into the requester-
// independent plaintext element record the relay's leaf-addressed cache
// stores: the same wire shape, but with the result envelope replaced by the
// plaintext result and each attestation's envelope replaced by its
// plaintext metadata (recomputed from the spec — metadata binds nothing
// about the requester's key). Signatures and inclusion proofs are carried
// unchanged; session fields are dropped because the record is not
// encrypted to anyone.
func PlainElements(spec *Spec, resp *wire.QueryResponse, attestors []*msp.Identity) *wire.QueryResponse {
	if len(resp.Attestations) != len(attestors) {
		return nil
	}
	stored := &wire.QueryResponse{
		EncryptedResult: spec.Result, // plaintext in this record
		PolicyDigest:    spec.PolicyDigest,
		Attestations:    make([]wire.Attestation, len(resp.Attestations)),
	}
	for i := range resp.Attestations {
		att := resp.Attestations[i]
		att.EncryptedMetadata = MetadataPlain(attestors[i], spec) // plaintext in this record
		att.SessionEphemeral = nil
		att.SessionGeneration = 0
		stored.Attestations[i] = att
	}
	return stored
}

// Join re-encrypts a stored plaintext element record to the requester
// described by spec, reusing every signature and inclusion proof: the new
// envelope holder joins the window's original proof instead of forcing a
// fresh build. The re-encryption is nearly free — no new signatures, at most
// one cached ECDH agreement per attestor. The stored record must describe
// the same attestor set the caller selected — a drifted peer set is an
// error, which callers treat as a cache miss.
func (b *Builder) Join(spec *Spec, stored *wire.QueryResponse, attestors []*msp.Identity) (*wire.QueryResponse, error) {
	if len(stored.Attestations) != len(attestors) {
		return nil, fmt.Errorf("proof: element record has %d attestations, want %d", len(stored.Attestations), len(attestors))
	}
	for i, id := range attestors {
		att := &stored.Attestations[i]
		if att.OrgID != id.OrgID || att.PeerName != id.Name {
			return nil, fmt.Errorf("proof: element %d is from %s/%s, want %s/%s", i, att.OrgID, att.PeerName, id.OrgID, id.Name)
		}
	}
	resp := &wire.QueryResponse{
		PolicyDigest: spec.PolicyDigest,
		Attestations: make([]wire.Attestation, len(stored.Attestations)),
	}
	for i := range stored.Attestations {
		att := stored.Attestations[i]
		var err error
		att.EncryptedMetadata, att.SessionEphemeral, att.SessionGeneration, err = b.seal(b.forAttestor(attestors[i]), spec, att.EncryptedMetadata)
		if err != nil {
			return nil, fmt.Errorf("proof: re-encrypt metadata from %s: %w", att.PeerName, err)
		}
		resp.Attestations[i] = att
	}
	var err error
	resp.EncryptedResult, resp.SessionEphemeral, resp.SessionGeneration, err = b.seal(b.manager(resultManagerKey), spec, spec.Result)
	if err != nil {
		return nil, fmt.Errorf("proof: re-encrypt result: %w", err)
	}
	return resp, nil
}
