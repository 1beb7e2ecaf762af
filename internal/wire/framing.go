package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// MaxFrameSize bounds a single relay-to-relay frame. It must accommodate a
// query result plus its proof; see maxFieldLen for the per-field bound.
const MaxFrameSize = 96 << 20 // 96 MiB

// ErrUntaggedFrame reports a frame header without the tagged-format marker:
// the peer speaks some other framing, and the connection cannot be resynced.
var ErrUntaggedFrame = errors.New("wire: untagged frame")

// Frame header: a 4-byte big-endian word holding the payload length with
// frameTagged set, then the 8-byte big-endian tag. Lengths never reach the
// marker bit (MaxFrameSize < 1<<31), so a bare length prefix — any framing
// without the marker — is told apart from the first four bytes, and a peer
// that expects a bare length reads this header as an oversized frame.
const (
	frameHeaderLen = 12
	frameTagged    = 1 << 31
)

// maxPooledFrame is the largest frame buffer WriteEnvelope keeps for
// reuse. Relay frames are a few KB; a larger one is allocated for its one
// write and left to the collector, so a rare outsized reply does not pin
// its buffer in the pool.
const maxPooledFrame = 64 << 10

// frameBufs holds idle outbound frame buffers. Every request a relay sends
// and every reply it serves is a frame, so WriteEnvelope encodes into one
// of these and hands it back once Write has returned; io.Writer
// implementations must not retain what they are given. Inbound frames are
// never recycled: decoders alias their input (see the package doc).
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteEnvelope encodes env as one frame under tag and writes it to w in a
// single Write: the header and the encoding in one buffer, so one syscall
// and one segment train on a TCP_NODELAY socket, nothing for a concurrent
// writer to interleave with, and no copy to get the envelope behind its
// header. The tag is the transport's correlation handle — a reply frame
// carries the tag of its request, so many round-trips share one connection
// and complete out of order. It lives in the frame header and not in the
// Envelope so envelope bytes (and everything signed over them) do not
// depend on the connection they ride: writing the same envelope again
// under another tag (a resend) sends the same payload bytes. This is the
// transport framing relays use over TCP in place of the paper's gRPC
// streams. A frame of up to maxPooledFrame bytes is encoded into a
// recycled buffer, so a warm write allocates nothing.
func WriteEnvelope(w io.Writer, tag uint64, env *Envelope) error {
	length := env.size()
	if length > MaxFrameSize {
		return fmt.Errorf("%w: frame of %d bytes", ErrTooLarge, length)
	}
	var frame []byte
	if n := frameHeaderLen + length; n > maxPooledFrame {
		frame = make([]byte, 0, n)
	} else {
		pooled := frameBufs.Get().(*[]byte)
		defer frameBufs.Put(pooled)
		if cap(*pooled) < n {
			*pooled = make([]byte, 0, n)
		}
		frame = (*pooled)[:0]
	}
	frame = binary.BigEndian.AppendUint32(frame, uint32(length)|frameTagged)
	enc := Walk{e: Encoder{buf: binary.BigEndian.AppendUint64(frame, tag)}}
	env.walk(&enc)
	if _, err := w.Write(enc.Encoded()); err != nil {
		return fmt.Errorf("write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one frame from r. A stream that ends cleanly between
// frames yields io.EOF; one that ends inside a frame yields a wrapped
// io.ErrUnexpectedEOF. The payload is a fresh buffer that the caller owns
// and nothing recycles, unlike WriteEnvelope's: a decoded message aliases
// it, and a client keeps the decoded reply. The header is peeked in the
// reader's own buffer, so the payload is the frame's only allocation.
func ReadFrame(r *bufio.Reader) (tag uint64, payload []byte, err error) {
	// The marker word is peeked and checked on its own: a peer with another
	// framing may never send the rest of a header.
	hdr, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) == 0 {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("read frame header: %w", noCleanEOF(err))
	}
	word := binary.BigEndian.Uint32(hdr)
	if word&frameTagged == 0 {
		return 0, nil, fmt.Errorf("%w: header %#08x", ErrUntaggedFrame, word)
	}
	length := word &^ frameTagged
	if length > MaxFrameSize {
		return 0, nil, fmt.Errorf("%w: frame of %d bytes", ErrTooLarge, length)
	}
	if hdr, err = r.Peek(frameHeaderLen); err != nil {
		return 0, nil, fmt.Errorf("read frame header: %w", noCleanEOF(err))
	}
	tag = binary.BigEndian.Uint64(hdr[4:])
	_, _ = r.Discard(frameHeaderLen) // peeked, so it cannot fail
	payload, err = readPayload(r, int(length))
	if err != nil {
		return 0, nil, fmt.Errorf("read frame payload: %w", noCleanEOF(err))
	}
	return tag, payload, nil
}

// readPayload reads a payload of the claimed length into a buffer that
// grows as bytes arrive, capped at length. It first waits until the
// reader's own buffer holds the payload, or as much of it as fits, and
// allocates for what that holds: a payload up to the reader's size arrives
// in one buffer of exactly its length, and a peer that claims more than it
// sends holds no buffer of its own. Each further buffer doubles the last,
// so a peer makes the reader hold at most about twice what it did send.
// The returned payload's length and capacity are both length.
func readPayload(r *bufio.Reader, length int) ([]byte, error) {
	if _, err := r.Peek(min(length, r.Size())); err != nil {
		return nil, err
	}
	payload := make([]byte, min(length, r.Buffered()))
	read := 0
	for {
		if _, err := io.ReadFull(r, payload[read:]); err != nil {
			return nil, err
		}
		if len(payload) == length {
			return payload, nil
		}
		read = len(payload)
		grown := make([]byte, min(2*read, length))
		copy(grown, payload)
		payload = grown
	}
}

// noCleanEOF turns the io.EOF that io.ReadFull reports when a stream ends
// exactly at a read boundary into io.ErrUnexpectedEOF: inside a frame no
// boundary is a clean end.
func noCleanEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
