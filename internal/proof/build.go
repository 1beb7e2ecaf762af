package proof

import (
	"bytes"
	"cmp"
	"context"
	"crypto/ecdsa"
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
	results *cryptoutil.SessionManager

	mu       sync.Mutex
	managers map[attestorKey]*cryptoutil.SessionManager
}

// attestorKey names an attestor's session manager by value, so a lookup
// builds no string.
type attestorKey struct{ org, name string }

// NewBuilder returns a builder whose session keys rotate every ttl
// (cryptoutil.DefaultSessionTTL when ttl <= 0) and which counts crypto ops
// into counter (may be nil).
func NewBuilder(ttl time.Duration, counter *cryptoutil.OpCounter) *Builder {
	results := cryptoutil.NewSessionManager(ttl, counter)
	return &Builder{ttl: ttl, counter: counter, results: results, managers: make(map[attestorKey]*cryptoutil.SessionManager)}
}

func (b *Builder) forAttestor(id *msp.Identity) *cryptoutil.SessionManager {
	key := attestorKey{id.OrgID, id.Name}
	b.mu.Lock()
	defer b.mu.Unlock()
	m, ok := b.managers[key]
	if !ok {
		m = cryptoutil.NewSessionManager(b.ttl, b.counter)
		b.managers[key] = m
	}
	return m
}

// seal encrypts, in place, the plaintext in envelope (a
// cryptoutil.NewEnvelope buffer) for spec's requester under mgr: the AEAD
// key is derived from the requester's cached agreement, the session
// generation and the query digest. It returns the sealed envelope plus the
// session point and generation the wire message carries.
func (b *Builder) seal(mgr *cryptoutil.SessionManager, spec *Spec, envelope []byte) (enc, ephemeral []byte, generation uint64, err error) {
	key, err := mgr.KeyFor(spec.RequesterLabel, spec.ClientPub)
	if err != nil {
		return nil, nil, 0, err
	}
	enc, err = key.SealEnvelope(spec.QueryDigest, envelope)
	if err != nil {
		return nil, nil, 0, err
	}
	b.counter.AddEncrypt(1)
	return enc, key.Ephemeral, key.Generation, nil
}

// Build builds the proofs for a window of queries attested by one attestor
// set; the result is index-aligned with specs. Each attestor signs once for
// the whole window, over the domain-separated Merkle root of every query's
// metadata leaf, and each attestation carries its leaf index and inclusion
// path; a lone query is a one-leaf tree, whose path is empty. Envelopes
// stay per query per attestor — metadata and results are sealed to each
// requester individually — so a window amortizes signing, never
// confidentiality. Each attestor runs on a goroutine of its own while the
// calling goroutine seals the results (an attestor run on the caller
// would start the others late); the first failure anywhere, or a cancelled
// ctx, stops the rest at their next query. Callers that persist a proof
// wrap its response with Seal.
func (b *Builder) Build(ctx context.Context, specs []Spec, attestors []*msp.Identity) ([]*wire.QueryResponse, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	n := len(specs)
	w := &build{b: b, ctx: ctx, rec: trace.FromContext(ctx), specs: specs,
		resps: make([]*wire.QueryResponse, n), envs: make([][]byte, n*len(attestors))}
	bodies := make([]wire.QueryResponse, n)
	atts := make([]wire.Attestation, n*len(attestors))
	for si := range specs {
		bodies[si].PolicyDigest = specs[si].PolicyDigest
		bodies[si].Attestations = atts[si*len(attestors) : (si+1)*len(attestors) : (si+1)*len(attestors)]
		w.resps[si] = &bodies[si]
	}
	for ai := range attestors {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.attest(ai, attestors[ai])
		}()
	}
	for si := range specs {
		if w.stop(nil) {
			break
		}
		resp := w.resps[si]
		var err error
		start := w.rec.Start()
		result := append(cryptoutil.NewEnvelope(len(specs[si].Result)), specs[si].Result...)
		resp.EncryptedResult, resp.SessionEphemeral, resp.SessionGeneration, err = b.seal(b.results, &specs[si], result)
		w.rec.End(trace.Seal, start)
		if err != nil {
			w.stop(fmt.Errorf("proof: encrypt result: %w", err))
			break
		}
	}
	w.wg.Wait()
	if w.err != nil {
		return nil, w.err
	}
	return w.resps, nil
}

// build is one Build call's shared state. envs holds each attestor's
// metadata envelopes, attestor ai's at [ai*n, (ai+1)*n).
type build struct {
	b     *Builder
	ctx   context.Context
	rec   *trace.Recorder
	specs []Spec
	resps []*wire.QueryResponse
	envs  [][]byte
	wg    sync.WaitGroup

	mu  sync.Mutex
	err error // the first failure
}

// stop records err, or else the caller's ctx ending, as the build's
// failure unless one is recorded already, and reports whether the build has
// failed: every part of it checks before each query and stops.
func (w *build) stop(err error) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = cmp.Or(err, w.ctx.Err())
	}
	return w.err != nil
}

// attest produces attestor id's slot ai of every response in the window,
// timing its signature and envelopes on the build's recorder.
func (w *build) attest(ai int, id *msp.Identity) {
	if w.stop(nil) {
		return
	}
	n := len(w.specs)
	envs := w.envs[ai*n : (ai+1)*n]
	for si := range w.specs {
		envs[si] = metadataEnvelope(id, &w.specs[si])
	}
	// A window's leaf hashes and the sibling hashes of every inclusion path
	// share one array, and the paths one array of slices into it. Both
	// hash the metadata before it is sealed over. A lone build's one leaf
	// is its root and has no path, so it stays on the stack.
	var lone [1]hash
	leaves, store, siblings := lone[:], []hash(nil), [][]byte(nil)
	if h := merkleHeight(n); h > 0 {
		tree := make([]hash, n+n*h)
		leaves, store, siblings = tree[:n], tree[n:], make([][]byte, 0, n*h)
	}
	for si, env := range envs {
		leaves[si] = merkleLeafHash(env[cryptoutil.EnvelopeNonceSize:])
	}
	digest := batchSigDigest(merkleRoot(leaves))
	start := w.rec.Start()
	sig, err := cryptoutil.SignDigest(id.Key, digest[:])
	w.rec.End(trace.Sign, start)
	if err != nil {
		w.stop(fmt.Errorf("proof: signature from %s: %w", id.Name, err))
		return
	}
	w.b.counter.AddSign(1)
	mgr := w.b.forAttestor(id)
	cert := id.CertPEM()
	for si := range w.specs {
		if w.stop(nil) {
			return
		}
		att := &w.resps[si].Attestations[ai]
		*att = wire.Attestation{PeerName: id.Name, OrgID: id.OrgID, CertPEM: cert, Signature: sig}
		start := w.rec.Start()
		att.EncryptedMetadata, att.SessionEphemeral, att.SessionGeneration, err = w.b.seal(mgr, &w.specs[si], envs[si])
		w.rec.End(trace.Seal, start)
		if err != nil {
			w.stop(fmt.Errorf("proof: encrypt metadata from %s: %w", id.Name, err))
			return
		}
		from := len(siblings)
		siblings, store = merklePath(siblings, store, leaves, si)
		att.BatchSize, att.BatchIndex, att.BatchPath = uint64(n), uint64(si), siblings[from:len(siblings):len(siblings)]
	}
}

// metadataEnvelope returns an envelope buffer (cryptoutil.NewEnvelope)
// holding, behind its nonce room, the exact plaintext metadata bytes an
// attestation built from spec by the given attestor encrypts, and the
// content of its Merkle leaf. The bytes are deterministic in (spec,
// attestor). The result digest is hashed into an array on the stack and the
// metadata encoded straight into the envelope it is sealed in, so the
// envelope is the only allocation.
func metadataEnvelope(id *msp.Identity, spec *Spec) []byte {
	resultDigest := cryptoutil.Sum(spec.Result)
	md := wire.Metadata{
		NetworkID:    spec.NetworkID,
		PeerName:     id.Name,
		OrgID:        id.OrgID,
		QueryDigest:  spec.QueryDigest,
		ResultDigest: resultDigest[:],
		Nonce:        spec.Nonce,
		UnixNano:     uint64(spec.Now.UnixNano()),
		PolicyDigest: spec.PolicyDigest,
	}
	return md.AppendMarshal(cryptoutil.NewEnvelope(md.Size()))
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

// UnmarshalSealed decodes a sealed proof. Its input is ledger-held bytes
// its caller goes on owning, so it decodes a clone of them: the proof owns
// everything it holds.
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
