package ledger

import (
	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// The signed payload is encoded in the wire package's tag/length/value
// format (a varint key per field, zero values omitted) and is written by
// one wire.Walk over the transaction's fields, nested messages in place:
// SignedPayload runs it into one exactly-sized buffer, Digest runs it
// straight into SHA-256 (a hashing walk), and a nested message's length
// comes from running the same walk in counting mode.
// TestKnownAnswerTransaction pins the bytes.

// flag walks a bool as a 0/1 varint field; false is omitted.
func flag(w *wire.Walk, f int, v bool) {
	var n uint64
	if v {
		n = 1
	}
	w.Uint(f, &n)
}

func (r *KVRead) walk(w *wire.Walk) {
	w.String(1, &r.Key)
	w.Uint(2, &r.Version.BlockNum)
	w.Uint(3, &r.Version.TxNum)
	flag(w, 4, r.Exists)
	w.String(5, &r.Namespace)
}

func (r *KVRead) size() int { var c wire.Walk; r.walk(&c); return c.Len() }

// walkWrite is a write record's walk. KVWrite is statedb.Write, which
// this package cannot give methods.
func walkWrite(w *wire.Walk, kw *KVWrite) {
	w.String(1, &kw.Key)
	w.Bytes(2, &kw.Value)
	flag(w, 3, kw.IsDelete)
	w.String(4, &kw.Namespace)
}

func writeSize(kw *KVWrite) int { var c wire.Walk; walkWrite(&c, kw); return c.Len() }

// walk writes every read and write record, each as an embedded message
// that is present even when its fields are all zero.
func (rw *RWSet) walk(w *wire.Walk) {
	for i := range rw.Reads {
		r := &rw.Reads[i]
		w.MessageHeader(1, r.size())
		r.walk(w)
	}
	for i := range rw.Writes {
		kw := &rw.Writes[i]
		w.MessageHeader(2, writeSize(kw))
		walkWrite(w, kw)
	}
}

func (rw *RWSet) size() int { var c wire.Walk; rw.walk(&c); return c.Len() }

// walk writes the endorsed part of an event; UnixNano is stamped at
// delivery and is not signed.
func (ev *ChaincodeEvent) walk(w *wire.Walk) {
	w.String(1, &ev.Chaincode)
	w.String(2, &ev.Name)
	w.Bytes(3, &ev.Payload)
}

func (ev *ChaincodeEvent) size() int { var c wire.Walk; ev.walk(&c); return c.Len() }

// walk writes the signed payload: the proposal identity plus the
// simulation outcome. Endorsements, UnixNano, ProofBundle and Validation
// are attached after endorsement and are not part of it.
func (tx *Transaction) walk(w *wire.Walk) {
	w.String(1, &tx.ID)
	w.String(2, &tx.Chaincode)
	w.String(3, &tx.Function)
	// Every argument is present, an empty one too: it is still an argument.
	w.BytesList(4, &tx.Args)
	w.Bytes(5, &tx.CreatorCert)
	if n := tx.RWSet.size(); n > 0 {
		w.MessageHeader(6, n)
		tx.RWSet.walk(w)
	}
	w.Bytes(7, &tx.Response)
	if tx.Event != nil {
		w.MessageHeader(8, tx.Event.size())
		tx.Event.walk(w)
	}
	// Empty keys are omitted, so local transactions keep the exact payload
	// bytes they had before interop metadata existed.
	w.String(9, &tx.InteropKey)
}

// SignedPayload returns the canonical bytes that endorsers sign, built in
// one exactly-sized allocation. Any post-endorsement mutation of the
// function, arguments, read-write set or response invalidates every
// endorsement. The commit path never builds these bytes — it signs and
// verifies Digest — so SignedPayload is the reference that tests and the
// known-answer vector hold Digest to.
func (tx *Transaction) SignedPayload() []byte {
	var c wire.Walk
	tx.walk(&c)
	w := wire.Writing(c.Len())
	tx.walk(&w)
	return w.Encoded()
}

// Digest returns the SHA-256 digest of the signed payload, in a slice of
// its own.
func (tx *Transaction) Digest() []byte {
	sum := tx.Sum()
	return sum[:]
}

// Sum is Digest returned as an array. It hashes the payload as the walk
// emits it, through a hashing walk's pooled scratch buffer, so a caller
// that keeps the array on its stack allocates nothing at any payload size.
// Nothing is memoised: every call covers the transaction's current
// contents.
func (tx *Transaction) Sum() [cryptoutil.DigestSize]byte {
	w := wire.Hashing(nil)
	tx.walk(&w)
	return w.Sum()
}
