// Package wire implements the network-neutral communication protocol the
// relays speak (§3.2 of the paper). The paper specifies the protocol with
// Protocol Buffers; this implementation provides an equivalent
// tag/length/value binary codec built only on the standard library, with the
// same wire model: each field is a varint key carrying a field number and a
// wire type, followed by either a varint scalar or a length-delimited byte
// string. Messages round-trip deterministically and unknown fields are
// skipped, which preserves protobuf's forward-compatibility property.
//
// Encoding is one allocation: Marshal runs a message's field walk once in
// the Encoder's counting mode and once more into a buffer of exactly the
// counted size.
//
// The message decoders here copy nothing but strings: a decoded message's
// byte fields alias the buffer it was decoded from. Pass a buffer nobody reuses or
// writes afterwards — a frame ReadFrame just allocated, or the output of a
// Marshal or StampQueryResponse call. The owner of a buffer that outlives
// the decode and is shared clones it once and decodes the clone; a shared
// ID-less response (a cache entry, say) needs no decode to be served, only
// StampQueryResponse, which copies it.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
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

// Encoder accumulates an encoded message. It has two modes. A counting
// encoder — the zero value, whose buffer is nil — writes nothing: only Len
// advances, by exactly the bytes a writing encoder would append. That is
// how a message learns its encoded size without building it. Every message
// in this package (and proof.Bundle and proof.Sealed) is one field walk,
// encode(e), run twice by Marshal: once on a counting encoder, then on
// NewEncoder(counted size), whose one buffer it fills exactly. A nested
// message is written in place behind MessageHeader, its length taken from
// a counting run of its own walk, rather than encoded apart and copied.
type Encoder struct {
	buf []byte
	n   int // counting mode: bytes counted so far
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
// mode, the length of Bytes otherwise.
func (e *Encoder) Len() int {
	if e.buf == nil {
		return e.n
	}
	return len(e.buf)
}

// uvarint appends v as a varint.
func (e *Encoder) uvarint(v uint64) {
	if e.buf == nil {
		e.n += (bits.Len64(v|1) + 6) / 7
		return
	}
	e.buf = binary.AppendUvarint(e.buf, v)
}

// put appends p verbatim.
func put[T string | []byte](e *Encoder, p T) {
	if e.buf == nil {
		e.n += len(p)
		return
	}
	e.buf = append(e.buf, p...)
}

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

// BytesCopy reads the current field as bytes and copies it out of the input
// buffer, for a decoder whose input its caller goes on owning and may
// reuse — the proof package's decoders of ledger-held bytes.
func (d *Decoder) BytesCopy() ([]byte, error) {
	b, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
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

// ScalarGuard rejects duplicate occurrences of scalar (non-repeated)
// fields while decoding a message. Every encoder in this package omits
// zero values, so a well-formed message never carries the same scalar
// field twice; when a decoder sees a second occurrence the input is
// either corrupt or crafted to exploit last-write-wins field resolution
// (e.g. a sealed proof bundle smuggling a second Response payload behind
// the one that was verified). Repeated fields and unknown fields are not
// tracked. Field numbers must be below 64.
type ScalarGuard struct {
	seen uint64
}

// Mark records an occurrence of a scalar field, returning ErrMalformed
// (wrapped) if the field was already seen in this message.
func (g *ScalarGuard) Mark(field int) error {
	if field <= 0 || field >= 64 {
		return fmt.Errorf("%w: scalar field %d out of guard range", ErrMalformed, field)
	}
	bit := uint64(1) << uint(field)
	if g.seen&bit != 0 {
		return fmt.Errorf("%w: duplicate scalar field %d", ErrMalformed, field)
	}
	g.seen |= bit
	return nil
}

// Check marks field when it appears in the scalars bitmask (as built by
// FieldMask), returning an error on a duplicate occurrence. Fields
// outside the mask — repeated fields and unknown fields — pass
// unconditionally, preserving forward compatibility.
func (g *ScalarGuard) Check(field int, scalars uint64) error {
	if field <= 0 || field >= 64 || scalars&(uint64(1)<<uint(field)) == 0 {
		return nil
	}
	return g.Mark(field)
}

// FieldMask builds the scalar-field bitmask for ScalarGuard.Check from a
// list of field numbers. It panics on field numbers outside (0, 64),
// which is a programming error in the message definition, not bad input.
func FieldMask(fields ...int) uint64 {
	var mask uint64
	for _, f := range fields {
		if f <= 0 || f >= 64 {
			panic(fmt.Sprintf("wire: FieldMask field %d out of range", f))
		}
		mask |= uint64(1) << uint(f)
	}
	return mask
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
