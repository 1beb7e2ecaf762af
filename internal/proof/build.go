package proof

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/msp"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Spec carries everything needed to build one query's proof: the identity
// of the question (query digest), the policy pin the attestors are selected
// under, the agreed plaintext result, the requester's nonce, encryption key
// and session label, and the build time stamped into every attestation.
type Spec struct {
	NetworkID    string
	QueryDigest  []byte
	PolicyDigest []byte
	Result       []byte
	Nonce        []byte
	ClientPub    *ecdsa.PublicKey
	// RequesterLabel identifies the requester for session-secret caching:
	// the digest of the requester's certificate, so a rotated certificate
	// never reuses a secret agreed for the old identity.
	RequesterLabel string
	Now            time.Time
}

// Builder is the one proof-building site of a driver. It owns the sessioned
// ECIES state every envelope is sealed under — one session manager per
// attestor identity plus one for results, all sharing a TTL — and the op
// counter that accounts signs, seals and ECDH agreements. Managers persist
// across builds, which is what lets a warm requester skip the variable-base
// ECDH multiply on every query after its first.
type Builder struct {
	ttl     time.Duration
	counter *cryptoutil.OpCounter

	mu       sync.Mutex
	managers map[string]*cryptoutil.SessionManager
}

// NewBuilder returns a builder whose session keys rotate every ttl
// (cryptoutil.DefaultSessionTTL when ttl <= 0) and which counts crypto ops
// into counter (may be nil).
func NewBuilder(ttl time.Duration, counter *cryptoutil.OpCounter) *Builder {
	return &Builder{ttl: ttl, counter: counter, managers: make(map[string]*cryptoutil.SessionManager)}
}

// resultManagerKey is the reserved manager slot for result encryption; it
// can never collide with an attestor key, which always contains "/".
const resultManagerKey = ""

func (b *Builder) manager(key string) *cryptoutil.SessionManager {
	b.mu.Lock()
	defer b.mu.Unlock()
	m, ok := b.managers[key]
	if !ok {
		m = cryptoutil.NewSessionManager(b.ttl, b.counter)
		b.managers[key] = m
	}
	return m
}

func (b *Builder) forAttestor(id *msp.Identity) *cryptoutil.SessionManager {
	return b.manager(id.OrgID + "/" + id.Name)
}

// seal encrypts plaintext for spec's requester under mgr: the AEAD key is
// derived from the requester's cached agreement, the session generation and
// the query digest. It returns the envelope plus the session point and
// generation the wire message carries.
func (b *Builder) seal(mgr *cryptoutil.SessionManager, spec *Spec, plaintext []byte) (enc, ephemeral []byte, generation uint64, err error) {
	key, err := mgr.KeyFor(spec.RequesterLabel, spec.ClientPub)
	if err != nil {
		return nil, nil, 0, err
	}
	enc, err = key.Seal(spec.QueryDigest, plaintext)
	if err != nil {
		return nil, nil, 0, err
	}
	b.counter.AddEncrypt(1)
	return enc, key.Ephemeral, key.Generation, nil
}

// Build builds the proofs for a window of queries attested by one attestor
// set; the result is index-aligned with specs. Each attestor signs once for
// the whole window: over its metadata when the window holds one query, so a
// lone request pays no Merkle overhead, and otherwise over the
// domain-separated Merkle root of every query's metadata leaf, each
// attestation then carrying its leaf index and inclusion path. Envelopes
// stay per query per attestor — metadata and results are sealed to each
// requester individually — so a window amortizes signing, never
// confidentiality. Attestors run concurrently with result sealing; the first
// failure anywhere, or a cancelled ctx, cancels the rest. Callers that
// persist a proof wrap its response with Seal.
func (b *Builder) Build(ctx context.Context, specs []Spec, attestors []*msp.Identity) ([]*wire.QueryResponse, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	rec := trace.FromContext(ctx)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	resps := make([]*wire.QueryResponse, len(specs))
	for i := range specs {
		resps[i] = &wire.QueryResponse{
			PolicyDigest: specs[i].PolicyDigest,
			Attestations: make([]wire.Attestation, len(attestors)),
		}
	}
	// errs[len(attestors)] is the result sealer's slot.
	errs := make([]error, len(attestors)+1)
	var wg sync.WaitGroup
	for ai, id := range attestors {
		wg.Add(1)
		go func(ai int, id *msp.Identity) {
			defer wg.Done()
			if errs[ai] = b.attest(ctx, rec, specs, id, ai, resps); errs[ai] != nil {
				cancel()
			}
		}(ai, id)
	}
	results := b.manager(resultManagerKey)
	for si := range specs {
		if err := ctx.Err(); err != nil {
			errs[len(attestors)] = err
			break
		}
		resp := resps[si]
		var err error
		start := rec.Start()
		resp.EncryptedResult, resp.SessionEphemeral, resp.SessionGeneration, err = b.seal(results, &specs[si], specs[si].Result)
		rec.End(trace.Seal, start)
		if err != nil {
			errs[len(attestors)] = fmt.Errorf("proof: encrypt result: %w", err)
			cancel()
			break
		}
	}
	wg.Wait()
	// Report a real failure in preference to the context errors it induced
	// in the work that saw the cancellation.
	var ctxErr error
	for _, err := range errs {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			ctxErr = err
		} else if err != nil {
			return nil, err
		}
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	return resps, nil
}

// attest produces attestor id's slot ai of every response in the window,
// timing its signature and envelopes on rec.
func (b *Builder) attest(ctx context.Context, rec *trace.Recorder, specs []Spec, id *msp.Identity, ai int, resps []*wire.QueryResponse) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	plains := make([][]byte, len(specs))
	for si := range specs {
		plains[si] = MetadataPlain(id, &specs[si])
	}
	signed := plains[0]
	var leaves [][]byte
	if len(specs) > 1 {
		leaves = make([][]byte, len(specs))
		for si, plain := range plains {
			leaves[si] = merkleLeafHash(plain)
		}
		signed = batchSigPayload(merkleRoot(leaves))
	}
	start := rec.Start()
	sig, err := id.Sign(signed)
	rec.End(trace.Sign, start)
	if err != nil {
		return fmt.Errorf("proof: signature from %s: %w", id.Name, err)
	}
	b.counter.AddSign(1)
	mgr := b.forAttestor(id)
	cert := id.CertPEM()
	for si := range specs {
		if err := ctx.Err(); err != nil {
			return err
		}
		att := wire.Attestation{PeerName: id.Name, OrgID: id.OrgID, CertPEM: cert, Signature: sig}
		start := rec.Start()
		att.EncryptedMetadata, att.SessionEphemeral, att.SessionGeneration, err = b.seal(mgr, &specs[si], plains[si])
		rec.End(trace.Seal, start)
		if err != nil {
			return fmt.Errorf("proof: encrypt metadata from %s: %w", id.Name, err)
		}
		if leaves != nil {
			att.BatchSize, att.BatchIndex, att.BatchPath = uint64(len(specs)), uint64(si), merklePath(leaves, si)
		}
		resps[si].Attestations[ai] = att
	}
	return nil
}

// MetadataPlain returns the exact plaintext metadata bytes an attestation
// built from spec by the given attestor encrypts: what a lone build signs,
// and the leaf content of a batched window. It is deterministic in (spec,
// attestor).
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

// Seal wraps a marshaled response Build produced into the persisted proof
// artifact, binding it to the build spec's digests, timestamp and attestor
// identities. Taking the already-marshaled bytes keeps proof construction
// to a single serialization on every path.
func Seal(spec Spec, marshaledResp []byte, attestors []*msp.Identity) *Sealed {
	sealed := &Sealed{
		QueryDigest:  spec.QueryDigest,
		PolicyDigest: spec.PolicyDigest,
		UnixNano:     uint64(spec.Now.UnixNano()),
		Response:     marshaledResp,
	}
	for _, id := range attestors {
		sealed.Attestors = append(sealed.Attestors, id.OrgID+"/"+id.Name)
	}
	return sealed
}

// Sealed is the persisted form of a proof: the exact wire response served
// to the requester (encrypted result plus attestation set), bound to the
// query digest, the pinned policy digest, the attestor identities and the
// build time. It rides in ledger.Transaction next to the interop key, so a
// replayed invoke re-serves the original proof byte for byte — no
// re-signing, no re-encryption, and no dependence on which attestor
// organizations still exist when the replay happens.
type Sealed struct {
	QueryDigest  []byte
	PolicyDigest []byte
	UnixNano     uint64
	Attestors    []string // "orgID/peerName" per attestation, for tooling
	Response     []byte   // marshaled wire.QueryResponse
}

// Marshal encodes the sealed proof for transaction storage, in one
// exactly-sized allocation (see wire.Walk).
func (s *Sealed) Marshal() []byte { w := wire.Writing(s.size()); s.walk(&w); return w.Encoded() }

func (s *Sealed) size() int { var c wire.Walk; s.walk(&c); return c.Len() }

// walk names Response as a scalar, so a second occurrence is refused: under
// last-write-wins a crafted proof could swap in a second response behind
// the one that was verified.
func (s *Sealed) walk(w *wire.Walk) {
	w.Bytes(1, &s.QueryDigest)
	w.Bytes(2, &s.PolicyDigest)
	w.Uint(3, &s.UnixNano)
	w.StringsOmitEmpty(4, &s.Attestors)
	w.Bytes(5, &s.Response)
}

// UnmarshalSealed decodes a sealed proof. Like UnmarshalBundle it decodes
// a clone of its ledger-held input.
func UnmarshalSealed(buf []byte) (*Sealed, error) {
	s, w := &Sealed{}, wire.Decoding(bytes.Clone(buf))
	for w.Next() {
		s.walk(&w)
	}
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("sealed proof: %w", err)
	}
	return s, nil
}

// OpenWire decodes the sealed proof's stored wire response.
func (s *Sealed) OpenWire() (*wire.QueryResponse, error) {
	return wire.UnmarshalQueryResponse(s.Response)
}
