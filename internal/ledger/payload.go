package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"
)

// The signed payload is encoded in the wire package's tag/length/value
// format (a varint key per field, zero values omitted) and is written here
// by one walk over the transaction's fields. The walk writes into a sink
// rather than building nested encodings: SignedPayload runs it into one
// exactly-sized buffer, Digest runs it straight into SHA-256, and a nested
// message's length comes from running the same walk in counting mode.
// TestKnownAnswerTransaction pins the bytes.

// Wire types of the tag/length/value format (see package wire).
const (
	wireVarint = 0
	wireBytes  = 2
)

// digestScratch is the fixed buffer Digest stages payload bytes in before
// handing them to SHA-256; a longer field passes through it in pieces.
const digestScratch = 256

// payloadSink receives the signed payload as the walk emits it. It has
// three modes: counting (buf nil: only n advances), building (buf has
// exactly the capacity the count gave) and hashing (h set: buf is scratch,
// written to h whenever it fills).
type payloadSink struct {
	n   int
	buf []byte
	h   hash.Hash
}

// emit appends p to the payload.
func emit[T string | []byte](s *payloadSink, p T) {
	s.n += len(p)
	if s.buf == nil {
		return
	}
	for len(p) > 0 {
		if len(s.buf) == cap(s.buf) {
			s.h.Write(s.buf)
			s.buf = s.buf[:0]
		}
		n := copy(s.buf[len(s.buf):cap(s.buf)], p)
		s.buf = s.buf[:len(s.buf)+n]
		p = p[n:]
	}
}

// field writes a length-delimited field; an empty value is omitted.
func field[T string | []byte](s *payloadSink, num int, v T) {
	if len(v) == 0 {
		return
	}
	s.header(num, len(v))
	emit(s, v)
}

func (s *payloadSink) uvarint(v uint64) {
	var b [binary.MaxVarintLen64]byte
	emit(s, b[:binary.PutUvarint(b[:], v)])
}

// header writes the key and length of a length-delimited field whose n
// bytes follow.
func (s *payloadSink) header(num, n int) {
	s.uvarint(uint64(num)<<3 | wireBytes)
	s.uvarint(uint64(n))
}

// uint writes a varint field; zero is omitted.
func (s *payloadSink) uint(num int, v uint64) {
	if v == 0 {
		return
	}
	s.uvarint(uint64(num)<<3 | wireVarint)
	s.uvarint(v)
}

func (s *payloadSink) flag(num int, v bool) {
	if v {
		s.uint(num, 1)
	}
}

func (r *KVRead) walk(s *payloadSink) {
	field(s, 1, r.Key)
	s.uint(2, r.Version.BlockNum)
	s.uint(3, r.Version.TxNum)
	s.flag(4, r.Exists)
	field(s, 5, r.Namespace)
}

func (r *KVRead) size() int { var c payloadSink; r.walk(&c); return c.n }

func (w *KVWrite) walk(s *payloadSink) {
	field(s, 1, w.Key)
	field(s, 2, w.Value)
	s.flag(3, w.IsDelete)
	field(s, 4, w.Namespace)
}

func (w *KVWrite) size() int { var c payloadSink; w.walk(&c); return c.n }

// walk writes every read and write record, each as an embedded message
// that is present even when its fields are all zero.
func (rw *RWSet) walk(s *payloadSink) {
	for i := range rw.Reads {
		r := &rw.Reads[i]
		s.header(1, r.size())
		r.walk(s)
	}
	for i := range rw.Writes {
		w := &rw.Writes[i]
		s.header(2, w.size())
		w.walk(s)
	}
}

func (rw *RWSet) size() int { var c payloadSink; rw.walk(&c); return c.n }

// walk writes the endorsed part of an event; UnixNano is stamped at
// delivery and is not signed.
func (ev *ChaincodeEvent) walk(s *payloadSink) {
	field(s, 1, ev.Chaincode)
	field(s, 2, ev.Name)
	field(s, 3, ev.Payload)
}

func (ev *ChaincodeEvent) size() int { var c payloadSink; ev.walk(&c); return c.n }

// walk writes the signed payload: the proposal identity plus the
// simulation outcome. Endorsements, UnixNano, ProofBundle and Validation
// are attached after endorsement and are not part of it.
func (tx *Transaction) walk(s *payloadSink) {
	field(s, 1, tx.ID)
	field(s, 2, tx.Chaincode)
	field(s, 3, tx.Function)
	for _, a := range tx.Args {
		// Present even when empty: an empty argument is still an argument.
		s.header(4, len(a))
		emit(s, a)
	}
	field(s, 5, tx.CreatorCert)
	if n := tx.RWSet.size(); n > 0 {
		s.header(6, n)
		tx.RWSet.walk(s)
	}
	field(s, 7, tx.Response)
	if tx.Event != nil {
		s.header(8, tx.Event.size())
		tx.Event.walk(s)
	}
	// Empty keys are omitted, so local transactions keep the exact payload
	// bytes they had before interop metadata existed.
	field(s, 9, tx.InteropKey)
}

// SignedPayload returns the canonical bytes that endorsers sign, built in
// one exactly-sized allocation. Any post-endorsement mutation of the
// function, arguments, read-write set or response invalidates every
// endorsement. The commit path never builds these bytes — it signs and
// verifies Digest — so SignedPayload is the reference that tests and the
// known-answer vector hold Digest to.
func (tx *Transaction) SignedPayload() []byte {
	var c payloadSink
	tx.walk(&c)
	s := payloadSink{buf: make([]byte, 0, c.n)}
	tx.walk(&s)
	return s.buf
}

// Digest returns the SHA-256 digest of the signed payload. It hashes the
// payload as the walk emits it, through a pooled digester's fixed scratch
// buffer, so its one allocation is the returned digest at any payload size.
// Nothing is memoised: every call covers the transaction's current
// contents.
func (tx *Transaction) Digest() []byte {
	d := digesters.Get().(*digester)
	defer digesters.Put(d)
	return bytes.Clone(d.sum(tx))
}

// digester hashes signed payloads; one serves any number of transactions
// in turn.
type digester struct {
	h       hash.Hash
	scratch [digestScratch]byte
	out     [sha256.Size]byte
}

// digesters holds idle digesters. Every peer digests every transaction of
// every block it commits, and hashes the block, so the commit path takes
// them from here rather than allocating a hash state and scratch per call.
var digesters = sync.Pool{New: func() any { return &digester{h: sha256.New()} }}

// sum returns the digest of tx's signed payload. The slice is d's own and
// the next call overwrites it.
func (d *digester) sum(tx *Transaction) []byte {
	d.h.Reset()
	s := payloadSink{buf: d.scratch[:0], h: d.h}
	tx.walk(&s)
	d.h.Write(s.buf)
	return d.h.Sum(d.out[:0])
}
