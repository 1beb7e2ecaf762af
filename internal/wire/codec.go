// Package wire implements the network-neutral communication protocol the
// relays speak (§3.2 of the paper). The paper specifies the protocol with
// Protocol Buffers; this implementation provides an equivalent
// tag/length/value binary codec built only on the standard library, with the
// same wire model: each field is a varint key carrying a field number and a
// wire type, followed by either a varint scalar or a length-delimited byte
// string. Messages round-trip deterministically and unknown fields are
// skipped, which preserves protobuf's forward-compatibility property.
//
// Each message — the ten here, and proof.Bundle, its Element and
// proof.Sealed — is one field walk, walk(w *Walk), that names each field
// once, by number, with a typed call. That one walk runs in four modes
// (see Walk): counting sizes the message, writing fills one buffer of
// exactly that size (Marshal is one allocation), hashing streams what
// writing would append into one SHA-256 without building it, and
// decoding is `for w.Next() { m.walk(&w) }`. The duplicate-field guard
// follows from the walk: scalar calls refuse a second occurrence of their
// field, repeated calls append, and a field no call names is skipped.
//
// The message decoders here copy nothing but strings: a decoded message's
// byte fields alias the buffer it was decoded from. Pass a buffer nobody
// reuses or writes afterwards — a frame ReadFrame just allocated, or the
// output of a Marshal call. The owner of a buffer that outlives the decode
// and is shared clones it once and decodes the clone, as
// proof.UnmarshalSealed does with ledger-held bytes;
// proof.UnmarshalBundle decodes a transaction argument in place, since
// nobody writes one. No decoded string aliases its input. A field that
// names a configured thing — a network, ledger, contract, function,
// policy expression, organization or peer — is a name (Walk.Name): the
// same few recur on every request, so a decode takes the canonical copy
// from a bounded, process-wide table and allocates only a name it has not
// seen. A per-request value (an ID, error text) is copied afresh.
//
// A reply is encoded once, straight into its frame. ResponseEnvelope and
// StampedResponseEnvelope leave the QueryResponse payload unencoded until
// the envelope is written. A served response arrives as an encoding
// without a RequestID (relay.Driver.ServeQuery), often an
// attestation-cache entry shared by every hit and so read-only: the reply
// stamps the request's ID in front of it as the frame is written, and
// neither copies nor decodes it.
//
// That rule splits the framing in two. Outbound frames are recycled:
// WriteEnvelope encodes into a pooled buffer and takes it back once the
// write has returned. Inbound frames never are: ReadFrame allocates each
// one afresh, because whatever is decoded from it aliases it.
package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math/bits"
	"sync"

	"repro/internal/memo"
)

// Wire types, mirroring the protobuf wire format.
const (
	wireVarint = 0 // uint64 varint scalars
	wireBytes  = 2 // length-delimited byte strings
)

var (
	// ErrTruncated is returned when a buffer ends mid-field.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrMalformed is returned for structurally invalid encodings.
	ErrMalformed = errors.New("wire: malformed message")
	// ErrTooLarge is returned when a length prefix exceeds sane bounds.
	ErrTooLarge = errors.New("wire: field exceeds size limit")
)

// maxFieldLen bounds any single length-delimited field. Cross-network query
// results are documents (bills of lading, letters of credit), not bulk data.
const maxFieldLen = 64 << 20 // 64 MiB

// Encoder accumulates an encoded message; it is what a Walk counts, writes
// and hashes with. A counting encoder — the zero value, whose buffer is
// nil — writes nothing: only Len advances, by exactly the bytes a writing
// encoder would append. That is how a message learns its encoded size
// without building it. A hashing encoder (see Hashing) writes into a fixed
// scratch buffer that it drains into a SHA-256 whenever it fills.
type Encoder struct {
	buf []byte
	n   int       // counting: bytes counted so far; hashing: bytes drained
	dg  *digester // hashing mode: the hash buf drains into
}

// NewEncoder returns a writing Encoder with the given initial capacity
// hint. A hint that a counting run measured is exact: the buffer never
// regrows.
func NewEncoder(sizeHint int) *Encoder {
	return &Encoder{buf: make([]byte, 0, sizeHint)}
}

// Bytes returns the encoded message (nil in counting mode). The returned
// slice aliases the encoder's internal buffer; callers must not mutate it
// while continuing to use the encoder.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the encoded length so far: the bytes counted in counting
// mode, the bytes drained plus those in the scratch buffer in hashing
// mode, the length of Bytes otherwise.
func (e *Encoder) Len() int {
	if e.buf == nil {
		return e.n
	}
	return e.n + len(e.buf)
}

// uvarint appends v as a varint.
func (e *Encoder) uvarint(v uint64) {
	if e.buf == nil {
		e.n += (bits.Len64(v|1) + 6) / 7
		return
	}
	if e.dg != nil && cap(e.buf)-len(e.buf) < binary.MaxVarintLen64 {
		e.drain()
	}
	e.buf = binary.AppendUvarint(e.buf, v)
}

// put appends p verbatim.
func put[T string | []byte](e *Encoder, p T) {
	switch {
	case e.buf == nil:
		e.n += len(p)
	case e.dg != nil:
		for len(p) > 0 {
			if len(e.buf) == cap(e.buf) {
				e.drain()
			}
			n := copy(e.buf[len(e.buf):cap(e.buf)], p)
			e.buf = e.buf[:len(e.buf)+n]
			p = p[n:]
		}
	default:
		e.buf = append(e.buf, p...)
	}
}

// drain hands a hashing encoder's scratch buffer to its hash and empties
// it.
func (e *Encoder) drain() {
	e.dg.h.Write(e.buf)
	e.n += len(e.buf)
	e.buf = e.buf[:0]
}

// hashScratch is the fixed buffer a hashing walk stages bytes in before
// handing them to SHA-256; a longer field passes through it in pieces.
const hashScratch = 256

// digester is the state of one hashing walk: a SHA-256, its scratch
// buffer and the array its sum lands in.
type digester struct {
	h       hash.Hash
	scratch [hashScratch]byte
	out     [sha256.Size]byte
}

// digesters holds idle digesters. Every peer digests every transaction it
// endorses or commits, and every relay on a multi-hop return path hashes
// the response and each hop pin, so hashing walks take their state from
// here rather than allocating it per digest.
var digesters = sync.Pool{New: func() any { return &digester{h: sha256.New()} }}

// Uint writes a varint scalar field. Zero values are omitted, as in proto3.
func (e *Encoder) Uint(field int, v uint64) {
	if v == 0 {
		return
	}
	e.key(field, wireVarint)
	e.uvarint(v)
}

// Bool writes a bool field as a 0/1 varint. False is omitted.
func (e *Encoder) Bool(field int, v bool) {
	if v {
		e.Uint(field, 1)
	}
}

// BytesField writes a length-delimited field. Empty slices are omitted.
func (e *Encoder) BytesField(field int, v []byte) {
	if len(v) == 0 {
		return
	}
	e.MessageHeader(field, len(v))
	put(e, v)
}

// String writes a length-delimited string field. Empty strings are omitted.
func (e *Encoder) String(field int, v string) {
	if len(v) == 0 {
		return
	}
	e.MessageHeader(field, len(v))
	put(e, v)
}

// Message writes an embedded message field from its already-encoded form.
// Unlike BytesField, empty messages are still written so that the presence
// of an element in a repeated field is preserved.
func (e *Encoder) Message(field int, encoded []byte) {
	e.MessageHeader(field, len(encoded))
	put(e, encoded)
}

// MessageHeader writes the key and length prefix of a length-delimited
// field whose n bytes the caller writes next — an embedded message encoded
// in place by its own walk. Like Message, it is written even when n is 0.
func (e *Encoder) MessageHeader(field, n int) {
	e.key(field, wireBytes)
	e.uvarint(uint64(n))
}

func (e *Encoder) key(field, wireType int) {
	e.uvarint(uint64(field)<<3 | uint64(wireType))
}

// Decoder iterates the fields of an encoded message.
type Decoder struct {
	buf         []byte
	pos         int
	pendingWire int
}

// NewDecoder returns a Decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Next advances to the next field, returning its field number. It returns
// ok=false at the clean end of the buffer and an error for malformed input.
func (d *Decoder) Next() (field int, ok bool, err error) {
	if d.pos >= len(d.buf) {
		return 0, false, nil
	}
	key, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, false, fmt.Errorf("%w: bad field key", ErrMalformed)
	}
	d.pos += n
	d.pendingWire = int(key & 7)
	field = int(key >> 3)
	if field == 0 {
		return 0, false, fmt.Errorf("%w: field number 0", ErrMalformed)
	}
	return field, true, nil
}

// Uint reads the current field as a varint scalar.
func (d *Decoder) Uint() (uint64, error) {
	if d.pendingWire != wireVarint {
		return 0, fmt.Errorf("%w: expected varint wire type", ErrMalformed)
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.pos += n
	return v, nil
}

// Bool reads the current field as a bool.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint()
	return v != 0, err
}

// Bytes reads the current field as a length-delimited byte string. The
// returned slice aliases the input buffer, so it stays valid only while
// nobody writes that buffer; its capacity ends with the field, so an
// append to it reallocates instead of overwriting the next field. Every
// message decoder in this package decodes this way (see the package doc).
func (d *Decoder) Bytes() ([]byte, error) {
	if d.pendingWire != wireBytes {
		return nil, fmt.Errorf("%w: expected bytes wire type", ErrMalformed)
	}
	length, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return nil, ErrTruncated
	}
	if length > maxFieldLen {
		return nil, ErrTooLarge
	}
	d.pos += n
	if uint64(len(d.buf)-d.pos) < length {
		return nil, ErrTruncated
	}
	end := d.pos + int(length)
	out := d.buf[d.pos:end:end]
	d.pos = end
	return out, nil
}

// String reads the current field as a string.
func (d *Decoder) String() (string, error) {
	b, err := d.Bytes()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Skip discards the current field, whatever its type.
func (d *Decoder) Skip() error {
	switch d.pendingWire {
	case wireVarint:
		_, err := d.Uint()
		return err
	case wireBytes:
		_, err := d.Bytes()
		return err
	default:
		return fmt.Errorf("%w: unsupported wire type %d", ErrMalformed, d.pendingWire)
	}
}

const (
	// namesMax bounds the intern table. A deployment's configured names
	// are a few dozen; a peer sending distinct names flushes the table,
	// which costs only re-interning.
	namesMax = 1024
	// maxNameLen is the longest name the table keeps; a longer one is
	// copied like any string. With namesMax, it bounds what a flood of
	// distinct names can make the table hold.
	maxNameLen = 128
)

// names is the intern table of decoded names, keyed and valued by the
// name itself.
var names = memo.Table[[]byte, string]{Max: namesMax}

// Intern returns b as a string: the table's copy when it holds one, which
// costs no allocation, otherwise a fresh copy that it then keeps. The
// result never aliases b. Decoders intern every name; so does a caller
// that turns a configured name read from a ledger back into a string.
func Intern(b []byte) string {
	if len(b) == 0 || len(b) > maxNameLen {
		return string(b)
	}
	if s, ok := names.Get(b); ok {
		return s
	}
	s := string(b)
	names.Put(s, s)
	return s
}

// Walk runs a message's field walk: one method, walk(w *Walk), that names
// each field of the message once, by number, with a typed call. The same
// walk serves four modes:
//
//   - Count: the zero Walk. Calls write nothing; Len advances by exactly
//     the bytes a writing walk appends. A message's size() is a counting
//     walk.
//   - Write: Writing(n). Calls append to one buffer of capacity n, which a
//     size() measured exactly, so Marshal is one allocation. A nested
//     message goes in place behind MessageHeader, its length counted by a
//     walk of its own.
//   - Hash: Hashing(prefix). Calls emit exactly the bytes a writing walk
//     appends, through a fixed scratch buffer into one SHA-256, and Sum
//     returns the digest of prefix followed by them: SHA-256 over Marshal,
//     without the allocation. Hashing walks take their state from a pool;
//     Sum returns it, so a hashing walk must end in Sum.
//   - Decode: Decoding(buf). Next reads one field key and the walk that
//     follows acts only in the call whose field number matches; a field no
//     call takes is skipped as unknown. Scalar calls (Uint, String, Bytes)
//     mark a duplicate guard and refuse a second occurrence of their field
//     — our encoders write a scalar at most once, so a second one is a
//     crafted attempt at last-write-wins — while repeated calls append.
//     Byte fields alias buf (see the package doc). A string never does:
//     String copies it, and Name and the repeated Strings return the
//     interned copy of a name (see intern).
//
// Field numbers of scalar fields must lie in [1, 63], the guard's range; a
// walk naming another panics in every mode, as a programming error.
type Walk struct {
	e        Encoder
	d        Decoder
	decoding bool
	field    int    // Decode: the field Next read
	taken    bool   // Decode: a call has read that field
	seen     uint64 // Decode: the scalar fields read so far
	err      error
}

// Writing returns a writing Walk whose buffer has capacity n.
func Writing(n int) Walk { return Walk{e: Encoder{buf: make([]byte, 0, n)}} }

// Hashing returns a hashing Walk whose digest covers prefix, then every
// byte the walk emits. End it with Sum.
func Hashing(prefix []byte) Walk {
	dg := digesters.Get().(*digester)
	dg.h.Reset()
	dg.h.Write(prefix)
	return Walk{e: Encoder{buf: dg.scratch[:0], dg: dg}}
}

// Sum ends a hashing walk: it returns the SHA-256 of the walk's prefix and
// of everything it emitted, and gives the walk's state back to the pool.
// The walk is a counting walk afterwards.
func (w *Walk) Sum() [sha256.Size]byte {
	dg := w.e.dg
	dg.h.Write(w.e.buf)
	dg.h.Sum(dg.out[:0])
	sum := dg.out
	w.e = Encoder{}
	digesters.Put(dg)
	return sum
}

// Decoding returns a decoding Walk over buf.
func Decoding(buf []byte) Walk { return Walk{d: Decoder{buf: buf}, decoding: true} }

// Encoding reports whether the walk counts, writes or hashes rather than
// decodes.
func (w *Walk) Encoding() bool { return !w.decoding }

// Len returns the bytes counted, written or hashed so far.
func (w *Walk) Len() int { return w.e.Len() }

// Encoded returns a writing walk's buffer.
func (w *Walk) Encoded() []byte { return w.e.buf }

// Err returns the first decode error, wrapped with its field number.
func (w *Walk) Err() error { return w.err }

// Next advances a decoding walk to the next field, skipping the previous
// one if no call took it. It returns false at the end of the input and on
// the first error.
func (w *Walk) Next() bool {
	if w.err == nil && w.field != 0 && !w.taken {
		w.check(w.d.Skip())
	}
	if w.err != nil {
		return false
	}
	field, ok, err := w.d.Next()
	w.field, w.taken = field, false
	w.check(err)
	return ok
}

// NextIn is Next for sub, the walk Nested returned for w's current field:
// at its end it reports sub's error to w.
func (w *Walk) NextIn(sub *Walk) bool {
	if sub.Next() {
		return true
	}
	w.check(sub.err)
	return false
}

// check records err, the first decode error, against the current field.
func (w *Walk) check(err error) {
	if err != nil && w.err == nil {
		if w.field != 0 {
			err = fmt.Errorf("field %d: %w", w.field, err)
		}
		w.err = err
	}
}

// take reports whether the call for field f reads the current field.
func (w *Walk) take(f int) bool {
	if !w.decoding || w.taken || w.field != f {
		return false
	}
	w.taken = true
	return true
}

// scalar is take for a scalar field: it also marks the duplicate guard,
// refusing a second occurrence.
func (w *Walk) scalar(f int) bool {
	if f <= 0 || f >= 64 {
		panic(fmt.Sprintf("wire: scalar field %d outside the duplicate guard's range", f))
	}
	if !w.take(f) {
		return false
	}
	bit := uint64(1) << f
	if w.seen&bit != 0 {
		w.check(fmt.Errorf("%w: duplicate scalar field %d", ErrMalformed, f))
		return false
	}
	w.seen |= bit
	return true
}

func (w *Walk) bytes() []byte {
	b, err := w.d.Bytes()
	w.check(err)
	return b
}

// Uint walks a varint scalar field. Zero is omitted, as in proto3.
func (w *Walk) Uint(f int, v *uint64) {
	if w.scalar(f) {
		var err error
		*v, err = w.d.Uint()
		w.check(err)
	} else if !w.decoding {
		w.e.Uint(f, *v)
	}
}

// String walks a string scalar field. Empty is omitted.
func (w *Walk) String(f int, v *string) {
	if w.scalar(f) {
		*v = string(w.bytes())
	} else if !w.decoding {
		w.e.String(f, *v)
	}
}

// Name walks a string scalar field that names a configured thing. It
// encodes exactly as String does; a decode returns the name's interned
// copy.
func (w *Walk) Name(f int, v *string) {
	if w.scalar(f) {
		*v = Intern(w.bytes())
	} else if !w.decoding {
		w.e.String(f, *v)
	}
}

// Bytes walks a byte-string scalar field. Empty is omitted.
func (w *Walk) Bytes(f int, v *[]byte) {
	if w.scalar(f) {
		*v = w.bytes()
	} else if !w.decoding {
		w.e.BytesField(f, *v)
	}
}

// Strings walks a repeated field of names (a route, attestors, peers).
// Every element is written, an empty one too, like any repeated element;
// a decode interns each one, as Name does.
func (w *Walk) Strings(f int, v *[]string) {
	if !w.decoding {
		for _, s := range *v {
			w.e.MessageHeader(f, len(s))
			put(&w.e, s)
		}
	} else if w.take(f) {
		*v = AppendRepeated(w, f, *v, Intern(w.bytes()))
	}
}

// StringsOmitEmpty walks a repeated string field whose empty elements are
// not written.
func (w *Walk) StringsOmitEmpty(f int, v *[]string) {
	if !w.decoding {
		for _, s := range *v {
			w.e.String(f, s)
		}
	} else {
		w.Strings(f, v)
	}
}

// BytesList walks a repeated byte-string field. Every element is written,
// an empty one too.
func (w *Walk) BytesList(f int, v *[][]byte) {
	if !w.decoding {
		for _, b := range *v {
			w.e.Message(f, b)
		}
	} else if w.take(f) {
		*v = AppendRepeated(w, f, *v, w.bytes())
	}
}

// AppendRepeated appends el, just decoded from the current field f of a
// repeated field, to s. The first append sizes s for every occurrence of f
// in the message, so a decode allocates a repeated field's slice once, not
// once per growth.
func AppendRepeated[T any](w *Walk, f int, s []T, el T) []T {
	if s == nil {
		s = make([]T, 0, 1+w.remaining(f))
	}
	return append(s, el)
}

// remaining counts the occurrences of field f after the current field. It
// skips each field's value unread and stops at the first malformed field,
// which the decode itself then reports.
func (w *Walk) remaining(f int) int {
	d, n := w.d, 0
	for {
		field, ok, err := d.Next()
		if !ok || err != nil || d.Skip() != nil {
			return n
		}
		if field == f {
			n++
		}
	}
}

// MessageHeader writes the key and length of an embedded message of n
// bytes that the walk writes next (see Encoder.MessageHeader).
func (w *Walk) MessageHeader(f, n int) { w.e.MessageHeader(f, n) }

// Nested reads the current field, when it is f, as an embedded message and
// returns a decoding walk over it, which w.NextIn advances. A repeated
// message field walks as
//
//	if w.Encoding() {
//		for each element el: w.MessageHeader(f, el.size()); el.walk(w)
//	} else if sub, ok := w.Nested(f); ok {
//		var el T; for w.NextIn(&sub) { el.walk(&sub) }
//		s = AppendRepeated(w, f, s, el)
//	}
//
// The returned walk holds no pointer to w — one would move every walk,
// writing ones included, to the heap — so w.NextIn, not sub.Next, advances
// it and hands its error to w.
func (w *Walk) Nested(f int) (sub Walk, ok bool) {
	if !w.take(f) {
		return Walk{}, false
	}
	b := w.bytes()
	return Decoding(b), w.err == nil
}
