package cryptoutil

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newTestManager(t testing.TB, ttl time.Duration, counter *OpCounter) *SessionManager {
	t.Helper()
	m := NewSessionManager(ttl, counter)
	return m
}

func TestSessionSealDecryptRoundTrip(t *testing.T) {
	key, _ := GenerateKey()
	m := newTestManager(t, time.Minute, nil)
	sk, err := m.KeyFor("requester-1", &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor: %v", err)
	}
	context := []byte("query-digest-1")
	plaintext := []byte("attested metadata")
	env, err := sealPlain(sk, context, plaintext)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	got, err := NewRecipient(key).Open(nil, sk.Ephemeral, sk.Generation, context, env)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(got, plaintext) {
		t.Fatalf("round trip = %q, want %q", got, plaintext)
	}
}

// TestSessionedEnvelopeProperty: arbitrary plaintexts round-trip through
// Seal/Recipient.Open.
func TestSessionedEnvelopeProperty(t *testing.T) {
	key, _ := GenerateKey()
	m := newTestManager(t, time.Minute, nil)
	sk, err := m.KeyFor("prop-requester", &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor: %v", err)
	}
	context := []byte("prop-query-digest")
	prop := func(data []byte) bool {
		env, err := sealPlain(sk, context, data)
		if err != nil {
			return false
		}
		got, err := NewRecipient(key).Open(nil, sk.Ephemeral, sk.Generation, context, env)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSessionSealEmptyPlaintext: an empty plaintext seals and opens to an
// empty result.
func TestSessionSealEmptyPlaintext(t *testing.T) {
	key, _ := GenerateKey()
	sk, err := newTestManager(t, time.Minute, nil).KeyFor("empty", &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor: %v", err)
	}
	context := []byte("qd-empty")
	env, err := sealPlain(sk, context, nil)
	if err != nil {
		t.Fatalf("seal of nil: %v", err)
	}
	got, err := NewRecipient(key).Open(nil, sk.Ephemeral, sk.Generation, context, env)
	if err != nil || len(got) != 0 {
		t.Fatalf("Open = %q, %v; want empty", got, err)
	}
}

// TestSessionSealNondeterministic: two seals of one plaintext under the same
// session key and context differ, so equal results are not linkable on the
// wire.
func TestSessionSealNondeterministic(t *testing.T) {
	key, _ := GenerateKey()
	sk, err := newTestManager(t, time.Minute, nil).KeyFor("nondet", &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor: %v", err)
	}
	context := []byte("qd-nondet")
	env1, _ := sealPlain(sk, context, []byte("same"))
	env2, _ := sealPlain(sk, context, []byte("same"))
	if bytes.Equal(env1, env2) {
		t.Fatal("two seals of the same plaintext are identical")
	}
}

// TestSessionSealEnvelopeLayout: SealEnvelope draws its nonce into the
// envelope it returns, and the layout stays nonce || ciphertext: the
// envelope opens through Recipient.Open and, split at the nonce size, under
// the envelope's own AEAD key directly. 1000 seals under one key never repeat a nonce.
func TestSessionSealEnvelopeLayout(t *testing.T) {
	key, _ := GenerateKey()
	sk, err := newTestManager(t, time.Minute, nil).KeyFor("layout", &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor: %v", err)
	}
	context, plaintext := []byte("qd-layout"), []byte("attestation metadata")
	aead, err := sessionAEAD(sk.prk, sk.Generation, context)
	if err != nil {
		t.Fatalf("sessionAEAD: %v", err)
	}
	n := aead.NonceSize()
	r := NewRecipient(key)
	nonces := make(map[string]bool)
	for i := range 1000 {
		env, err := sealPlain(sk, context, plaintext)
		if err != nil {
			t.Fatalf("Seal %d: %v", i, err)
		}
		if len(env) != n+len(plaintext)+aead.Overhead() {
			t.Fatalf("seal %d: envelope is %d bytes, want %d", i, len(env), n+len(plaintext)+aead.Overhead())
		}
		if got, err := r.Open(nil, sk.Ephemeral, sk.Generation, context, env); err != nil || !bytes.Equal(got, plaintext) {
			t.Fatalf("seal %d: Recipient.Open = %q, %v", i, got, err)
		}
		if got, err := aead.Open(nil, env[:n], env[n:], nil); err != nil || !bytes.Equal(got, plaintext) {
			t.Fatalf("seal %d: nonce || ciphertext split does not open: %q, %v", i, got, err)
		}
		if nonces[string(env[:n])] {
			t.Fatalf("seal %d repeats a nonce", i)
		}
		nonces[string(env[:n])] = true
	}
}

// TestSessionCrossGenerationRoundTrip pins the generation binding: an
// envelope sealed before a rotation still opens with its own (ephemeral,
// generation) pair after the manager has moved on, and never opens under
// the successor generation's parameters.
func TestSessionCrossGenerationRoundTrip(t *testing.T) {
	key, _ := GenerateKey()
	m := newTestManager(t, time.Minute, nil)
	clock := time.Unix(5000, 0)
	m.now = func() time.Time { return clock }

	context := []byte("qd-gen")
	old, err := m.KeyFor("gen-requester", &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor gen 1: %v", err)
	}
	oldEnv, err := sealPlain(old, context, []byte("sealed under gen 1"))
	if err != nil {
		t.Fatalf("Seal gen 1: %v", err)
	}

	clock = clock.Add(2 * time.Minute) // expire the generation
	fresh, err := m.KeyFor("gen-requester", &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor gen 2: %v", err)
	}
	if fresh.Generation == old.Generation {
		t.Fatal("TTL expiry did not rotate the generation")
	}
	if bytes.Equal(fresh.Ephemeral, old.Ephemeral) {
		t.Fatal("rotation reused the ephemeral point")
	}
	freshEnv, err := sealPlain(fresh, context, []byte("sealed under gen 2"))
	if err != nil {
		t.Fatalf("Seal gen 2: %v", err)
	}

	got, err := NewRecipient(key).Open(nil, old.Ephemeral, old.Generation, context, oldEnv)
	if err != nil || string(got) != "sealed under gen 1" {
		t.Fatalf("old-generation envelope: %q, %v", got, err)
	}
	got, err = NewRecipient(key).Open(nil, fresh.Ephemeral, fresh.Generation, context, freshEnv)
	if err != nil || string(got) != "sealed under gen 2" {
		t.Fatalf("new-generation envelope: %q, %v", got, err)
	}
	// The wrong generation (even with the right ephemeral) must not open.
	if _, err := NewRecipient(key).Open(nil, old.Ephemeral, fresh.Generation, context, oldEnv); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("cross-generation open got %v, want ErrDecrypt", err)
	}
}

// TestSessionWarmHitSkipsECDH is the amortization claim in miniature: the
// first KeyFor pays one agreement, every further KeyFor under the same
// label and generation pays zero.
func TestSessionWarmHitSkipsECDH(t *testing.T) {
	key, _ := GenerateKey()
	var ops OpCounter
	m := newTestManager(t, time.Minute, &ops)
	for i := 0; i < 10; i++ {
		if _, err := m.KeyFor("warm-poller", &key.PublicKey); err != nil {
			t.Fatalf("KeyFor %d: %v", i, err)
		}
	}
	if got := ops.ECDHOps(); got != 1 {
		t.Fatalf("ECDH ops after 10 warm KeyFor = %d, want 1", got)
	}
}

// TestSessionCertRotationFreshECDH: the label is the certificate digest,
// so a requester presenting a rotated certificate — same underlying key
// pair or not — triggers a fresh agreement instead of a silent reuse.
func TestSessionCertRotationFreshECDH(t *testing.T) {
	key, _ := GenerateKey()
	var ops OpCounter
	m := newTestManager(t, time.Minute, &ops)
	if _, err := m.KeyFor("cert-digest-old", &key.PublicKey); err != nil {
		t.Fatalf("KeyFor old cert: %v", err)
	}
	if _, err := m.KeyFor("cert-digest-new", &key.PublicKey); err != nil {
		t.Fatalf("KeyFor new cert: %v", err)
	}
	if got := ops.ECDHOps(); got != 2 {
		t.Fatalf("ECDH ops across a certificate rotation = %d, want 2", got)
	}
}

// TestSessionManagerConcurrent hammers one manager from many goroutines
// with a TTL short enough that rotations race live KeyFor calls; run
// under -race this is the session caches' data-race proof, on the sealing
// side and — every goroutine opening through one Recipient — on the opening
// side. Every envelope sealed must still open with the (ephemeral,
// generation) its key reported, whatever generation it landed in.
func TestSessionManagerConcurrent(t *testing.T) {
	key, _ := GenerateKey()
	m := newTestManager(t, 50*time.Microsecond, &OpCounter{})
	r := NewRecipient(key)
	labels := []string{"org-a", "org-b", "org-c"}
	context := []byte("concurrent-qd")
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sk, err := m.KeyFor(labels[(g+i)%len(labels)], &key.PublicKey)
				if err != nil {
					errs <- err
					return
				}
				env, err := sealPlain(sk, context, []byte{byte(g), byte(i)})
				if err != nil {
					errs <- err
					return
				}
				got, err := r.Open(nil, sk.Ephemeral, sk.Generation, context, env)
				if err != nil || !bytes.Equal(got, []byte{byte(g), byte(i)}) {
					errs <- fmt.Errorf("open %d/%d: %q, %v", g, i, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent session use: %v", err)
	}
}

func TestSessionDecryptMalformed(t *testing.T) {
	key, _ := GenerateKey()
	m := newTestManager(t, time.Minute, nil)
	sk, err := m.KeyFor("malformed", &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor: %v", err)
	}
	context := []byte("qd-malformed")
	env, err := sealPlain(sk, context, []byte("payload"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	cases := []struct {
		name      string
		ephemeral []byte
		gen       uint64
		ctx       []byte
		ct        []byte
	}{
		{"truncated envelope", sk.Ephemeral, sk.Generation, context, env[:4]},
		{"empty envelope", sk.Ephemeral, sk.Generation, context, nil},
		{"garbage ephemeral", []byte{0x04, 0x01, 0x02}, sk.Generation, context, env},
		{"wrong generation", sk.Ephemeral, sk.Generation + 1, context, env},
		{"wrong context", sk.Ephemeral, sk.Generation, []byte("other-query"), env},
		{"flipped byte", sk.Ephemeral, sk.Generation, context, flipLast(env)},
	}
	// Each case must fail on a fresh Recipient and on one that has already
	// opened the genuine envelope, so holds the point's agreement.
	warm := NewRecipient(key)
	if _, err := warm.Open(nil, sk.Ephemeral, sk.Generation, context, env); err != nil {
		t.Fatalf("genuine envelope: %v", err)
	}
	for _, tc := range cases {
		for _, r := range []*Recipient{NewRecipient(key), warm} {
			if _, err := r.Open(nil, tc.ephemeral, tc.gen, tc.ctx, tc.ct); !errors.Is(err, ErrDecrypt) {
				t.Errorf("%s: got %v, want ErrDecrypt", tc.name, err)
			}
		}
	}
	if _, err := NewRecipient(nil).Open(nil, sk.Ephemeral, sk.Generation, context, env); !errors.Is(err, ErrInvalidKey) {
		t.Errorf("nil key: got %v, want ErrInvalidKey", err)
	}
}

// recipientState copies a Recipient's table and agreement count.
func recipientState(r *Recipient) (map[string][]byte, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	table := make(map[string][]byte, len(r.prks))
	for point, prk := range r.prks {
		table[point] = append([]byte(nil), prk...)
	}
	return table, r.agreements
}

// TestSessionRecipientOneAgreementPerPoint: every envelope sealed under one
// session point — different queries, so different AEAD keys — opens through
// one Recipient for a single ECDH agreement.
func TestSessionRecipientOneAgreementPerPoint(t *testing.T) {
	key, _ := GenerateKey()
	sk, err := newTestManager(t, time.Minute, nil).KeyFor("poller", &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor: %v", err)
	}
	r := NewRecipient(key)
	const envelopes = 10
	for i := 0; i < envelopes; i++ {
		context := []byte(fmt.Sprintf("qd-%d", i))
		env, err := sealPlain(sk, context, []byte{byte(i)})
		if err != nil {
			t.Fatalf("Seal %d: %v", i, err)
		}
		got, err := r.Open(nil, sk.Ephemeral, sk.Generation, context, env)
		if err != nil || !bytes.Equal(got, []byte{byte(i)}) {
			t.Fatalf("Open %d: %q, %v", i, got, err)
		}
	}
	if table, agreements := recipientState(r); agreements != 1 || len(table) != 1 {
		t.Fatalf("%d envelopes from one point: %d agreements, %d remembered points; want 1, 1", envelopes, agreements, len(table))
	}
}

// TestSessionRecipientOpensOldAndNewGeneration: across a rotation one
// Recipient holds both generations' points, opens envelopes of either in any
// order, and still refuses an envelope presented under the other
// generation's number — the generation binding lives in the per-envelope
// expand, not in the remembered agreement.
func TestSessionRecipientOpensOldAndNewGeneration(t *testing.T) {
	key, _ := GenerateKey()
	m := newTestManager(t, time.Minute, nil)
	clock := time.Unix(5000, 0)
	m.now = func() time.Time { return clock }
	context := []byte("qd-rotation")
	old, err := m.KeyFor("rotating-poller", &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor old: %v", err)
	}
	oldEnv, err := sealPlain(old, context, []byte("old generation"))
	if err != nil {
		t.Fatalf("Seal old: %v", err)
	}
	clock = clock.Add(2 * time.Minute)
	fresh, err := m.KeyFor("rotating-poller", &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor fresh: %v", err)
	}
	freshEnv, err := sealPlain(fresh, context, []byte("new generation"))
	if err != nil {
		t.Fatalf("Seal fresh: %v", err)
	}

	r := NewRecipient(key)
	for _, step := range []struct {
		key  SessionKey
		env  []byte
		want string
	}{
		{fresh, freshEnv, "new generation"},
		{old, oldEnv, "old generation"},
		{fresh, freshEnv, "new generation"},
		{old, oldEnv, "old generation"},
	} {
		got, err := r.Open(nil, step.key.Ephemeral, step.key.Generation, context, step.env)
		if err != nil || string(got) != step.want {
			t.Fatalf("generation %d: %q, %v; want %q", step.key.Generation, got, err, step.want)
		}
	}
	if _, agreements := recipientState(r); agreements != 2 {
		t.Fatalf("two generations cost %d agreements, want 2", agreements)
	}
	if _, err := r.Open(nil, old.Ephemeral, fresh.Generation, context, oldEnv); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("old envelope under the new generation: %v, want ErrDecrypt", err)
	}
	if _, err := r.Open(nil, fresh.Ephemeral, old.Generation, context, freshEnv); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("new envelope under the old generation: %v, want ErrDecrypt", err)
	}
}

// TestSessionRecipientBadPointLeavesTableUnchanged: a point that does not
// parse as a P-256 point is refused with ErrDecrypt before any agreement,
// and a warm table is left exactly as it was.
func TestSessionRecipientBadPointLeavesTableUnchanged(t *testing.T) {
	key, _ := GenerateKey()
	sk, err := newTestManager(t, time.Minute, nil).KeyFor("poller", &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor: %v", err)
	}
	context := []byte("qd-bad-point")
	env, err := sealPlain(sk, context, []byte("payload"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	r := NewRecipient(key)
	if _, err := r.Open(nil, sk.Ephemeral, sk.Generation, context, env); err != nil {
		t.Fatalf("genuine envelope: %v", err)
	}
	before, agreementsBefore := recipientState(r)

	offCurve := append([]byte{0x04}, bytes.Repeat([]byte{0x01}, 64)...)
	compressed := append([]byte{0x02}, sk.Ephemeral[1:33]...)
	for name, point := range map[string][]byte{
		"empty":         nil,
		"infinity":      {0x00},
		"truncated":     sk.Ephemeral[:64],
		"off the curve": offCurve,
		"compressed":    compressed,
		"trailing byte": append(append([]byte(nil), sk.Ephemeral...), 0x00),
	} {
		if _, err := r.Open(nil, point, sk.Generation, context, env); !errors.Is(err, ErrDecrypt) {
			t.Errorf("%s point: got %v, want ErrDecrypt", name, err)
		}
	}
	after, agreementsAfter := recipientState(r)
	if agreementsAfter != agreementsBefore || len(after) != len(before) {
		t.Fatalf("bad points changed the table: %d → %d points, %d → %d agreements",
			len(before), len(after), agreementsBefore, agreementsAfter)
	}
	for point, prk := range before {
		if !bytes.Equal(after[point], prk) {
			t.Fatalf("bad points changed the remembered agreement for %x", point)
		}
	}
}

// TestSessionRecipientTableBounded: more distinct valid points than the
// table holds — one per session generation — never grow it past
// recipientPoints, and every envelope still opens, first time and again
// after its point has been dropped.
func TestSessionRecipientTableBounded(t *testing.T) {
	key, _ := GenerateKey()
	m := newTestManager(t, time.Minute, nil)
	clock := time.Unix(5000, 0)
	m.now = func() time.Time { return clock }
	context := []byte("qd-bounded")
	type sealed struct {
		key SessionKey
		env []byte
	}
	all := make([]sealed, 2*recipientPoints+5)
	for i := range all {
		clock = clock.Add(2 * time.Minute)
		sk, err := m.KeyFor("poller", &key.PublicKey)
		if err != nil {
			t.Fatalf("KeyFor %d: %v", i, err)
		}
		env, err := sealPlain(sk, context, []byte{byte(i)})
		if err != nil {
			t.Fatalf("Seal %d: %v", i, err)
		}
		all[i] = sealed{sk, env}
	}
	r := NewRecipient(key)
	for round := 0; round < 2; round++ {
		for i, s := range all {
			got, err := r.Open(nil, s.key.Ephemeral, s.key.Generation, context, s.env)
			if err != nil || !bytes.Equal(got, []byte{byte(i)}) {
				t.Fatalf("round %d point %d: %q, %v", round, i, got, err)
			}
			if table, _ := recipientState(r); len(table) > recipientPoints {
				t.Fatalf("round %d point %d: table holds %d points, bound %d", round, i, len(table), recipientPoints)
			}
		}
	}
}

// TestSessionRecipientOtherKeyFails: two requesters share one session point
// (same manager, same generation). A Recipient for the other key refuses the
// envelope cold, and still refuses it once its table holds that very point
// from opening its own envelope.
func TestSessionRecipientOtherKeyFails(t *testing.T) {
	alice, _ := GenerateKey()
	bob, _ := GenerateKey()
	m := newTestManager(t, time.Minute, nil)
	forAlice, err := m.KeyFor("alice", &alice.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor alice: %v", err)
	}
	forBob, err := m.KeyFor("bob", &bob.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor bob: %v", err)
	}
	if !bytes.Equal(forAlice.Ephemeral, forBob.Ephemeral) {
		t.Fatal("one generation handed out two session points")
	}
	context := []byte("qd-shared-point")
	aliceEnv, err := sealPlain(forAlice, context, []byte("for alice"))
	if err != nil {
		t.Fatalf("Seal alice: %v", err)
	}
	bobEnv, err := sealPlain(forBob, context, []byte("for bob"))
	if err != nil {
		t.Fatalf("Seal bob: %v", err)
	}

	r := NewRecipient(bob)
	if _, err := r.Open(nil, forAlice.Ephemeral, forAlice.Generation, context, aliceEnv); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("cold: bob opened alice's envelope: %v", err)
	}
	if got, err := r.Open(nil, forBob.Ephemeral, forBob.Generation, context, bobEnv); err != nil || string(got) != "for bob" {
		t.Fatalf("bob's own envelope: %q, %v", got, err)
	}
	if _, err := r.Open(nil, forAlice.Ephemeral, forAlice.Generation, context, aliceEnv); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("warm: bob opened alice's envelope: %v", err)
	}
}

// cipherState copies the keys of a Recipient's cipher table and its count of
// ciphers built.
func cipherState(r *Recipient) (map[[32]byte]bool, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make(map[[32]byte]bool, len(r.ciphers))
	for key := range r.ciphers {
		keys[key] = true
	}
	return keys, r.built
}

// openWant opens env through r and fails the test unless it opens to want.
func openWant(t *testing.T, r *Recipient, sk SessionKey, context, env, want []byte) {
	t.Helper()
	if got, err := r.Open(nil, sk.Ephemeral, sk.Generation, context, env); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("open under %q: %q, %v; want %q", context, got, err, want)
	}
}

// TestRecipientCipherOnePerKey: a client polling three queries round-robin
// — one session point, one generation, so only the context tells their
// keys apart — builds one cipher per query however many envelopes it
// opens, each sealed afresh under its own nonce.
func TestRecipientCipherOnePerKey(t *testing.T) {
	key, _ := GenerateKey()
	sk, err := newTestManager(t, time.Minute, nil).KeyFor("poller", &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor: %v", err)
	}
	contexts := [][]byte{[]byte("qd-a"), []byte("qd-b"), []byte("qd-c")}
	r := NewRecipient(key)
	for round := range 20 {
		for _, context := range contexts {
			want := fmt.Appendf(nil, "%s round %d", context, round)
			env, err := sealPlain(sk, context, want)
			if err != nil {
				t.Fatalf("Seal: %v", err)
			}
			openWant(t, r, sk, context, env, want)
		}
	}
	if keys, built := cipherState(r); built != len(contexts) || len(keys) != len(contexts) {
		t.Fatalf("60 opens under %d keys: %d ciphers built, %d kept; want %d, %d",
			len(contexts), built, len(keys), len(contexts), len(contexts))
	}
}

// TestRecipientCipherPerContextGenerationAndPoint: an envelope sealed under
// a different context, generation or session point than a warm entry
// builds and keeps its own cipher, right after that entry was hit, and
// never opens under the warm entry's parameters, nor the warm envelope
// under its own.
func TestRecipientCipherPerContextGenerationAndPoint(t *testing.T) {
	key, _ := GenerateKey()
	sk, err := newTestManager(t, time.Minute, nil).KeyFor("poller", &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor: %v", err)
	}
	otherPoint, err := newTestManager(t, time.Minute, nil).KeyFor("poller", &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor: %v", err)
	}
	context := []byte("qd-warm")
	warmEnv, err := sealPlain(sk, context, []byte("warm"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	r := NewRecipient(key)
	openWant(t, r, sk, context, warmEnv, []byte("warm"))

	nextGeneration := SessionKey{Ephemeral: sk.Ephemeral, Generation: sk.Generation + 1, prk: sk.prk}
	for i, v := range []struct {
		name    string
		key     SessionKey
		context []byte
	}{
		{"context", sk, []byte("qd-other")},
		{"generation", nextGeneration, context},
		{"point", otherPoint, context},
	} {
		env, err := sealPlain(v.key, v.context, []byte(v.name))
		if err != nil {
			t.Fatalf("Seal %s: %v", v.name, err)
		}
		openWant(t, r, sk, context, warmEnv, []byte("warm"))
		_, before := cipherState(r)
		if _, err := r.Open(nil, sk.Ephemeral, sk.Generation, context, env); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("other %s opened under the warm entry's parameters: %v", v.name, err)
		}
		openWant(t, r, v.key, v.context, env, []byte(v.name))
		if _, err := r.Open(nil, v.key.Ephemeral, v.key.Generation, v.context, warmEnv); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("warm envelope opened under the other %s: %v", v.name, err)
		}
		keys, after := cipherState(r)
		if after-before != 1 || len(keys) != i+2 {
			t.Fatalf("other %s: %d ciphers built, %d kept; want 1, %d", v.name, after-before, len(keys), i+2)
		}
		openWant(t, r, v.key, v.context, env, []byte(v.name))
		if _, again := cipherState(r); again != after {
			t.Fatalf("other %s: reopening built %d more ciphers", v.name, again-after)
		}
	}
}

// TestRecipientCipherTamperedStoresNothing: a tampered envelope fails with
// ErrDecrypt on a warm hit and on a miss, and the table keeps exactly the
// entries it had, also when it is full, so a forged envelope can neither
// plant a cipher nor evict one.
func TestRecipientCipherTamperedStoresNothing(t *testing.T) {
	key, _ := GenerateKey()
	sk, err := newTestManager(t, time.Minute, nil).KeyFor("poller", &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor: %v", err)
	}
	r := NewRecipient(key)
	for _, fill := range []int{1, recipientCiphers} {
		for i := range fill {
			context := fmt.Appendf(nil, "qd-%d", i)
			env, err := sealPlain(sk, context, context)
			if err != nil {
				t.Fatalf("Seal: %v", err)
			}
			openWant(t, r, sk, context, env, context)
			if i == 0 {
				if _, err := r.Open(nil, sk.Ephemeral, sk.Generation, context, flipLast(env)); !errors.Is(err, ErrDecrypt) {
					t.Fatalf("tampered envelope after a warm hit: %v, want ErrDecrypt", err)
				}
			}
		}
		before, _ := cipherState(r)
		if len(before) != fill {
			t.Fatalf("%d contexts opened: table holds %d", fill, len(before))
		}
		forgedContext := []byte("qd-forged")
		forged, err := sealPlain(sk, forgedContext, []byte("forged"))
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		if _, err := r.Open(nil, sk.Ephemeral, sk.Generation, forgedContext, flipLast(forged)); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("tampered envelope under a fresh context: %v, want ErrDecrypt", err)
		}
		after, _ := cipherState(r)
		if len(after) != len(before) {
			t.Fatalf("table of %d: a tampered envelope left %d entries", len(before), len(after))
		}
		for k := range before {
			if !after[k] {
				t.Fatalf("table of %d: a tampered envelope evicted an entry", len(before))
			}
		}
	}
}

// TestRecipientCipherTableBounded: more distinct contexts than the table
// holds never grow it past recipientCiphers, and every envelope still
// opens, first time and again after its cipher has been dropped.
func TestRecipientCipherTableBounded(t *testing.T) {
	key, _ := GenerateKey()
	sk, err := newTestManager(t, time.Minute, nil).KeyFor("poller", &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor: %v", err)
	}
	envs := make([][]byte, 2*recipientCiphers+5)
	for i := range envs {
		if envs[i], err = sealPlain(sk, fmt.Appendf(nil, "qd-%d", i), []byte{byte(i)}); err != nil {
			t.Fatalf("Seal %d: %v", i, err)
		}
	}
	r := NewRecipient(key)
	for round := range 2 {
		for i, env := range envs {
			openWant(t, r, sk, fmt.Appendf(nil, "qd-%d", i), env, []byte{byte(i)})
			if keys, _ := cipherState(r); len(keys) > recipientCiphers {
				t.Fatalf("round %d context %d: table holds %d ciphers, bound %d", round, i, len(keys), recipientCiphers)
			}
		}
	}
}

// TestRecipientCipherConcurrentOpen: 8 goroutines open one envelope at once
// through a cold Recipient, each beside a forged envelope under a fresh
// context; run under -race this is the cipher table's data-race proof.
// Every open returns the plaintext, every forgery fails, and the table
// ends holding the one genuine key.
func TestRecipientCipherConcurrentOpen(t *testing.T) {
	key, _ := GenerateKey()
	sk, err := newTestManager(t, time.Minute, nil).KeyFor("poller", &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor: %v", err)
	}
	context, plaintext := []byte("qd-shared"), []byte("one reply, many readers")
	env, err := sealPlain(sk, context, plaintext)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	forgedContext := []byte("qd-forged")
	forged, err := sealPlain(sk, forgedContext, plaintext)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	forged = flipLast(forged)
	r := NewRecipient(key)
	start := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := range 50 {
				if got, err := r.Open(nil, sk.Ephemeral, sk.Generation, context, env); err != nil || !bytes.Equal(got, plaintext) {
					errs <- fmt.Errorf("goroutine %d open %d: %q, %v", g, i, got, err)
					return
				}
				if _, err := r.Open(nil, sk.Ephemeral, sk.Generation, forgedContext, forged); !errors.Is(err, ErrDecrypt) {
					errs <- fmt.Errorf("goroutine %d forgery %d: %v, want ErrDecrypt", g, i, err)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if keys, _ := cipherState(r); len(keys) != 1 || !keys[sessionKey(sk.prk, sk.Generation, context)] {
		t.Fatalf("table holds %d ciphers after concurrent opens; want only the genuine key", len(keys))
	}
}

func flipLast(b []byte) []byte {
	out := append([]byte(nil), b...)
	out[len(out)-1] ^= 0xff
	return out
}

// FuzzSessionDecrypt drives the sessioned envelope opener with arbitrary
// ephemeral points, generations, contexts and ciphertexts, differentially:
// a long-lived Recipient whose table earlier inputs have warmed and a fresh
// one-shot Recipient must return the same plaintext, or both an error. It
// must never panic, and must only succeed on the genuine envelope it was
// seeded with.
func FuzzSessionDecrypt(f *testing.F) {
	key, err := GenerateKey()
	if err != nil {
		f.Fatalf("GenerateKey: %v", err)
	}
	m := NewSessionManager(time.Minute, nil)
	sk, err := m.KeyFor("fuzz-requester", &key.PublicKey)
	if err != nil {
		f.Fatalf("KeyFor: %v", err)
	}
	context := []byte("fuzz-query-digest")
	genuine, err := sealPlain(sk, context, []byte("fuzz plaintext"))
	if err != nil {
		f.Fatalf("Seal: %v", err)
	}
	// A valid point nobody sealed to this key under: agreement succeeds,
	// the AEAD open must not.
	other, err := NewSessionManager(time.Minute, nil).KeyFor("fuzz-requester", &key.PublicKey)
	if err != nil {
		f.Fatalf("KeyFor: %v", err)
	}
	f.Add(sk.Ephemeral, sk.Generation, context, genuine)
	f.Add([]byte{}, uint64(0), []byte{}, []byte{})
	f.Add(sk.Ephemeral, sk.Generation+1, context, genuine)
	f.Add([]byte{0x04}, sk.Generation, context, genuine[:8])
	f.Add(other.Ephemeral, other.Generation, context, genuine)
	warm := NewRecipient(key)
	f.Fuzz(func(t *testing.T, ephemeral []byte, generation uint64, ctx, ct []byte) {
		plaintext, err := warm.Open(nil, ephemeral, generation, ctx, ct)
		fresh, freshErr := NewRecipient(key).Open(nil, ephemeral, generation, ctx, ct)
		if (err == nil) != (freshErr == nil) || !bytes.Equal(plaintext, fresh) {
			t.Fatalf("warm and fresh recipients disagree: warm %q, %v; fresh %q, %v", plaintext, err, fresh, freshErr)
		}
		if err != nil {
			if !errors.Is(err, ErrDecrypt) && !errors.Is(err, ErrInvalidKey) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		// Success implies the exact seeded envelope: same parameters, same
		// plaintext. Anything else is a forged open.
		if !bytes.Equal(plaintext, []byte("fuzz plaintext")) {
			t.Fatalf("decoder accepted a forged envelope: %q", plaintext)
		}
	})
}
