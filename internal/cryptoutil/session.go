package cryptoutil

import (
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// sessionInfo domain-separates sessioned AEAD keys from any other use of
// the shared secret. The trailing NUL keeps the generation/context suffix
// from colliding with a longer prefix.
const sessionInfo = "interop-ecies-session-v1\x00"

// DefaultSessionTTL is how long a session ephemeral key (and the ECDH
// secrets agreed under it) lives before SessionManager rotates to a fresh
// generation. Short enough that a leaked session key exposes only a few
// seconds of traffic; long enough that a warm poller amortizes the
// variable-base scalar multiplication across many windows.
const DefaultSessionTTL = 10 * time.Second

// OpCounter tallies expensive crypto operations. All methods are safe for
// concurrent use and safe on a nil receiver, so call sites never need to
// guard the "nobody is counting" case.
type OpCounter struct {
	ecdh    atomic.Uint64
	sign    atomic.Uint64
	encrypt atomic.Uint64
}

// AddECDH records n ECDH scalar multiplications.
func (c *OpCounter) AddECDH(n uint64) {
	if c != nil {
		c.ecdh.Add(n)
	}
}

// AddSign records n ECDSA signing operations.
func (c *OpCounter) AddSign(n uint64) {
	if c != nil {
		c.sign.Add(n)
	}
}

// AddEncrypt records n envelope encryptions.
func (c *OpCounter) AddEncrypt(n uint64) {
	if c != nil {
		c.encrypt.Add(n)
	}
}

// ECDHOps returns the ECDH scalar multiplication count.
func (c *OpCounter) ECDHOps() uint64 {
	if c == nil {
		return 0
	}
	return c.ecdh.Load()
}

// SignOps returns the signing operation count.
func (c *OpCounter) SignOps() uint64 {
	if c == nil {
		return 0
	}
	return c.sign.Load()
}

// EncryptOps returns the envelope encryption count.
func (c *OpCounter) EncryptOps() uint64 {
	if c == nil {
		return 0
	}
	return c.encrypt.Load()
}

// SessionManager amortizes the expensive half of ECIES. Classic Encrypt
// burns one ephemeral P-256 keygen plus one variable-base ECDH scalar
// multiplication per envelope; a SessionManager instead holds one ephemeral
// key per generation (rotated on a TTL) and caches, per requester label,
// the HKDF-extracted agreement (PRK) with that requester, so sealing N
// envelopes for R distinct requesters inside a generation costs one keygen
// plus R agreements instead of 2N scalar multiplications, and each seal runs
// only the HKDF expand. Confidentiality stays per-query: each envelope's
// AEAD key is expanded from the cached PRK with a domain-separated info
// string bound to the generation and a caller-supplied context (the query
// digest), so no two queries share an AEAD key.
//
// The requester label must identify the requester's certificate, not just
// its public key — a requester whose certificate rotates mid-session gets
// a fresh agreement rather than silently reusing a secret across
// identities.
type SessionManager struct {
	ttl     time.Duration
	now     func() time.Time
	counter *OpCounter

	mu         sync.Mutex
	generation uint64
	priv       *ecdh.PrivateKey
	pub        []byte // uncompressed point of priv's public key
	born       time.Time
	prks       map[string][]byte // requester label -> PRK, current generation only
}

// NewSessionManager builds a session manager that rotates its ephemeral key
// every ttl (DefaultSessionTTL when ttl <= 0) and, when counter is non-nil,
// records every real ECDH agreement it performs.
func NewSessionManager(ttl time.Duration, counter *OpCounter) *SessionManager {
	if ttl <= 0 {
		ttl = DefaultSessionTTL
	}
	return &SessionManager{ttl: ttl, now: time.Now, counter: counter}
}

// SessionKey is the per-(generation, requester) sealing state handed out by
// a SessionManager, by value. It is immutable and safe for concurrent use.
type SessionKey struct {
	// Ephemeral is the uncompressed session public point the recipient
	// needs to run its half of the agreement. It travels in explicit wire
	// fields, not inline in the envelope.
	Ephemeral []byte
	// Generation is the session generation counter, bound into the AEAD
	// key derivation so envelopes from different generations can never be
	// confused even if an ephemeral key were ever reused.
	Generation uint64

	prk []byte
}

// KeyFor returns sealing state for the requester identified by label (the
// requester's certificate digest) holding pub. A warm hit — same label,
// same generation — performs zero scalar multiplications. A cold label
// performs one ECDH agreement; an expired generation first rotates the
// ephemeral key and drops all cached agreements.
func (m *SessionManager) KeyFor(label string, pub *ecdsa.PublicKey) (SessionKey, error) {
	if pub == nil {
		return SessionKey{}, ErrInvalidKey
	}
	m.mu.Lock()
	if m.priv == nil || m.now().Sub(m.born) >= m.ttl {
		if err := m.rotateLocked(); err != nil {
			m.mu.Unlock()
			return SessionKey{}, err
		}
	}
	if prk, ok := m.prks[label]; ok {
		key := SessionKey{Ephemeral: m.pub, Generation: m.generation, prk: prk}
		m.mu.Unlock()
		return key, nil
	}
	priv, ephemeral, generation := m.priv, m.pub, m.generation
	m.mu.Unlock()

	// The variable-base multiplication runs outside the lock so concurrent
	// requesters agree in parallel; the generation recheck below keeps a
	// stale agreement from being cached into a newer generation.
	recipient, err := pub.ECDH()
	if err != nil {
		return SessionKey{}, fmt.Errorf("%w: %v", ErrInvalidKey, err)
	}
	secret, err := priv.ECDH(recipient)
	if err != nil {
		return SessionKey{}, fmt.Errorf("session ecdh agreement: %w", err)
	}
	m.counter.AddECDH(1)
	prk := hkdfExtract(secret, ephemeral)

	m.mu.Lock()
	if m.generation == generation {
		m.prks[label] = prk
	}
	m.mu.Unlock()
	return SessionKey{Ephemeral: ephemeral, Generation: generation, prk: prk}, nil
}

// rotateLocked installs a fresh ephemeral key, bumps the generation and
// forgets every cached agreement. Caller holds m.mu.
func (m *SessionManager) rotateLocked() error {
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return fmt.Errorf("generate session key: %w", err)
	}
	m.priv = priv
	m.pub = priv.PublicKey().Bytes()
	m.generation++
	m.born = m.now()
	m.prks = make(map[string][]byte)
	return nil
}

// EnvelopeNonceSize is the length of an envelope's GCM nonce, which the
// ciphertext follows; envelopeTagSize is the GCM tag's, which ends it.
const (
	EnvelopeNonceSize = 12
	envelopeTagSize   = 16
)

// NewEnvelope returns an envelope buffer for an n-byte plaintext: room for
// the nonce, and capacity for the plaintext and the tag behind it. A
// caller appends the plaintext, so it can encode a message straight into
// the envelope, and SealEnvelope seals it in place.
func NewEnvelope(n int) []byte {
	return make([]byte, EnvelopeNonceSize, EnvelopeNonceSize+n+envelopeTagSize)
}

// SealEnvelope encrypts the plaintext that follows the first
// EnvelopeNonceSize bytes of envelope, a NewEnvelope buffer, under the
// per-query AEAD key derived from this session key and context (the query
// digest). It draws the nonce into those first bytes and encrypts the
// plaintext in place, so the envelope it returns shares envelope's array
// and the plaintext is gone. The envelope layout is:
//
//	GCM nonce || ciphertext
//
// — deliberately missing the 65-byte point prefix classic Decrypt demands,
// so a sessioned envelope fed to the classic decoder fails cleanly. The
// ephemeral point and generation travel in explicit wire fields instead.
func (k *SessionKey) SealEnvelope(context, envelope []byte) ([]byte, error) {
	aead, err := sessionAEAD(k.prk, k.Generation, context)
	if err != nil {
		return nil, err
	}
	nonce, plaintext := envelope[:EnvelopeNonceSize], envelope[EnvelopeNonceSize:]
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("generate gcm nonce: %w", err)
	}
	return aead.Seal(nonce, nonce, plaintext, nil), nil
}

// recipientPoints bounds how many session points a Recipient remembers. A
// client sees sources × (attestors+1) live points per session generation,
// plus the previous generation's while envelopes sealed under it are still
// in flight; a full table is dropped wholesale and refills on demand.
const recipientPoints = 64

// recipientCiphers bounds how many AES-GCM ciphers a Recipient keeps. A
// reply to one query opens attestors+1 envelopes, each under its own key,
// so a client polling up to 42 queries with two attestors each reopens its
// replies on warm ciphers; a full table is dropped wholesale and refills on
// demand. The table is sized for its bound up front, so neither a miss nor a
// clear allocates.
const recipientCiphers = 128

// Recipient opens sessioned envelopes produced by SessionKey.SealEnvelope for one
// private key. It remembers, per session point, the HKDF-extracted
// agreement (PRK) with that point, so only the first envelope from a point
// pays the ECDH multiplication and every later one is one HKDF expand plus
// one AES-GCM open. The table is keyed by the point's bytes — content, so
// nothing ever invalidates it — and the generation and query context stay in
// the per-envelope expand, so every query still gets its own AEAD key. It
// also keeps the AES-GCM cipher of every key an envelope has opened under,
// keyed by that 32-byte key, so a repeated reply (the same query polled
// again, served from the relay's attestation cache) reopens without
// building its ciphers again. Safe for concurrent use.
type Recipient struct {
	priv *ecdh.PrivateKey
	err  error // why priv is unusable; returned by every Open

	mu         sync.Mutex
	prks       map[string][]byte        // session point -> PRK of the agreement with it
	ciphers    map[[32]byte]cipher.AEAD // envelope key -> its cipher, stored once an open under it succeeded
	agreements int                      // ECDH agreements run, for tests
	built      int                      // ciphers built, for tests
}

// NewRecipient converts priv to its ECDH form once. A nil key, or one
// crypto/ecdh cannot convert, makes every Open fail with ErrInvalidKey.
func NewRecipient(priv *ecdsa.PrivateKey) *Recipient {
	r := &Recipient{prks: make(map[string][]byte), ciphers: make(map[[32]byte]cipher.AEAD, recipientCiphers)}
	if priv == nil {
		r.err = ErrInvalidKey
		return r
	}
	key, err := priv.ECDH()
	if err != nil {
		r.err = fmt.Errorf("%w: %v", ErrInvalidKey, err)
		return r
	}
	r.priv = key
	return r
}

// Open opens a sessioned envelope: it agrees with the session ephemeral
// point (or reuses the remembered agreement), expands the per-query AEAD key
// from the generation and context, and opens the nonce||ciphertext
// envelope under that key's cipher, built unless an earlier open under the
// same key kept it. It appends the plaintext, PlaintextSize(ciphertext)
// bytes, to dst and returns the extended slice, as cipher.AEAD.Open does,
// so a caller that opens several envelopes can give them one buffer: dst's
// spare capacity must not overlap ciphertext. Any malformed input yields
// ErrDecrypt.
func (r *Recipient) Open(dst, ephemeral []byte, generation uint64, context, ciphertext []byte) ([]byte, error) {
	prk, err := r.prk(ephemeral)
	if err != nil {
		return nil, err
	}
	if len(ciphertext) < EnvelopeNonceSize {
		return nil, ErrDecrypt
	}
	key := sessionKey(prk, generation, context)
	r.mu.Lock()
	aead, warm := r.ciphers[key]
	r.mu.Unlock()
	if !warm {
		if aead, err = gcmFromKey(key[:]); err != nil {
			return nil, err
		}
	}
	out, err := aead.Open(dst, ciphertext[:EnvelopeNonceSize], ciphertext[EnvelopeNonceSize:], nil)
	if !warm {
		// Only a cipher whose open succeeded is kept, so a forged
		// envelope can neither plant an entry nor fill the table.
		r.mu.Lock()
		r.built++
		if err == nil {
			if len(r.ciphers) >= recipientCiphers {
				clear(r.ciphers)
			}
			r.ciphers[key] = aead
		}
		r.mu.Unlock()
	}
	if err != nil {
		return nil, ErrDecrypt
	}
	return out, nil
}

// PlaintextSize is the length of the plaintext an envelope of len(envelope)
// bytes opens to, 0 for one too short to open.
func PlaintextSize(envelope []byte) int {
	return max(0, len(envelope)-EnvelopeNonceSize-envelopeTagSize)
}

// prk returns the PRK of the agreement with the session point ephemeral.
// Only a point that parses and agrees is remembered.
func (r *Recipient) prk(ephemeral []byte) ([]byte, error) {
	if r.err != nil {
		return nil, r.err
	}
	r.mu.Lock()
	prk, ok := r.prks[string(ephemeral)]
	r.mu.Unlock()
	if ok {
		return prk, nil
	}
	point, err := ecdh.P256().NewPublicKey(ephemeral)
	if err != nil {
		return nil, fmt.Errorf("%w: bad session ephemeral point", ErrDecrypt)
	}
	secret, err := r.priv.ECDH(point)
	if err != nil {
		return nil, fmt.Errorf("%w: session ecdh agreement", ErrDecrypt)
	}
	prk = hkdfExtract(secret, ephemeral)
	r.mu.Lock()
	if len(r.prks) >= recipientPoints {
		clear(r.prks)
	}
	r.prks[string(ephemeral)] = prk
	r.agreements++
	r.mu.Unlock()
	return prk, nil
}

// sessionAEAD derives the per-query AES-256-GCM cipher for a sessioned
// envelope from the agreement's PRK (extracted with the session ephemeral
// point as salt), the generation and the query context. It allocates only
// what aes.NewCipher and cipher.NewGCM allocate. SealEnvelope builds one
// per seal, since every seal is under a fresh query digest; Recipient.Open
// keeps the ciphers it has opened under instead.
func sessionAEAD(prk []byte, generation uint64, context []byte) (cipher.AEAD, error) {
	key := sessionKey(prk, generation, context)
	return gcmFromKey(key[:])
}

// sessionKey is the AES-256 key of one sessioned envelope: the first
// HKDF-SHA256 expand block of prk under the info string sessionInfo ||
// generation || context, that is HMAC-SHA256(prk, info || 0x01). The HMAC
// is written out as RFC 2104 defines it: SHA-256 streamed over the key
// padded with ipad then the message, and over the key padded with opad then
// that inner digest, with every buffer on the stack. prk is a 32-byte
// HKDF-Extract output, so it is never longer than the hash block.
func sessionKey(prk []byte, generation uint64, context []byte) [32]byte {
	var pad [sha256.BlockSize]byte
	var gen [8]byte
	binary.BigEndian.PutUint64(gen[:], generation)
	var sum [sha256.Size]byte

	inner := sha256.New()
	inner.Write(hmacPad(&pad, prk, 0x36))
	inner.Write([]byte(sessionInfo))
	inner.Write(gen[:])
	inner.Write(context)
	inner.Write([]byte{1})
	inner.Sum(sum[:0])

	outer := sha256.New()
	outer.Write(hmacPad(&pad, prk, 0x5c))
	outer.Write(sum[:])
	outer.Sum(sum[:0])
	return sum
}

// hmacPad fills pad with key, zero-padded to the SHA-256 block size, every
// byte XORed with b (RFC 2104's ipad 0x36 or opad 0x5c), and returns it.
func hmacPad(pad *[sha256.BlockSize]byte, key []byte, b byte) []byte {
	for i := range pad {
		pad[i] = b
		if i < len(key) {
			pad[i] ^= key[i]
		}
	}
	return pad[:]
}
