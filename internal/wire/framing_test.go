package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []struct {
		tag     uint64
		payload []byte
	}{
		{1, []byte("first")},
		{0, []byte{}},
		{1, []byte("same tag again")}, // tags are the caller's business
		{^uint64(0), bytes.Repeat([]byte{0xAB}, 10_000)},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f.tag, NewFrame(f.payload)); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range frames {
		tag, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if tag != want.tag || !bytes.Equal(got, want.payload) {
			t.Fatalf("frame %d = tag %d, %d bytes; want tag %d, %d bytes", i, tag, len(got), want.tag, len(want.payload))
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected io.EOF at end, got %v", err)
	}
}

// TestFrameHeaderKnownAnswer pins the 12 header bytes WriteFrame puts in
// front of a payload: the big-endian payload length with bit 31 set, then
// the big-endian 64-bit tag. Every relay on the wire parses these bytes, so
// a change here is a protocol change, never a refactor side effect.
func TestFrameHeaderKnownAnswer(t *testing.T) {
	const (
		tag       = 0x0102030405060708
		payload   = "ping"
		wantFrame = "80000004" + "0102030405060708" + "70696e67"
	)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, tag, NewFrame([]byte(payload))); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != wantFrame {
		t.Fatalf("frame bytes = %s, want %s", got, wantFrame)
	}
	gotTag, gotPayload, err := ReadFrame(&buf)
	if err != nil || gotTag != tag || string(gotPayload) != payload {
		t.Fatalf("ReadFrame = %#x, %q, %v; want %#x, %q", gotTag, gotPayload, err, uint64(tag), payload)
	}
}

// TestReadFrameTruncated cuts a valid frame at every length short of whole:
// only the empty stream is a clean io.EOF, every other cut is an error that
// is not io.EOF, so a reader can tell a hang-up between frames from one
// inside a frame.
func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 7, NewFrame([]byte("full payload"))); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	whole := buf.Bytes()
	for cut := 0; cut < len(whole); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(whole[:cut]))
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("empty stream gave %v, want io.EOF", err)
			}
			continue
		}
		if err == nil || errors.Is(err, io.EOF) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d of %d gave %v, want io.ErrUnexpectedEOF", cut, len(whole), err)
		}
	}
}

// TestReadFrameGrowsAsBytesArrive: a payload longer than the first buffer
// arrives whole in a buffer exactly its size, and a stream cut at any of
// the buffer's growth boundaries is an unexpected EOF, not a clean one.
func TestReadFrameGrowsAsBytesArrive(t *testing.T) {
	payload := make([]byte, 3*firstPayloadBuf+5)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 3, NewFrame(payload)); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	whole := buf.Bytes()
	tag, got, err := ReadFrame(bytes.NewReader(whole))
	if err != nil || tag != 3 || !bytes.Equal(got, payload) || cap(got) != len(payload) {
		t.Fatalf("ReadFrame = tag %d, %d bytes in a buffer of %d, %v", tag, len(got), cap(got), err)
	}
	for _, sent := range []int{0, firstPayloadBuf, 2 * firstPayloadBuf, 3 * firstPayloadBuf} {
		_, _, err := ReadFrame(bytes.NewReader(whole[:frameHeaderLen+sent]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("stream cut after %d payload bytes gave %v, want io.ErrUnexpectedEOF", sent, err)
		}
	}
}

func TestReadFrameOversized(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized frame gave %v", err)
	}
}

// TestReadFrameUntagged: a bare 4-byte length prefix (the framing before
// tags) is refused from its first word, without waiting for more bytes.
func TestReadFrameUntagged(t *testing.T) {
	legacy := []byte{0x00, 0x00, 0x00, 0x05, 'h', 'e', 'l', 'l', 'o'}
	for _, stream := range [][]byte{legacy, legacy[:4]} {
		if _, _, err := ReadFrame(bytes.NewReader(stream)); !errors.Is(err, ErrUntaggedFrame) {
			t.Fatalf("untagged frame gave %v", err)
		}
	}
}

func TestWriteFrameOversized(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, make(Frame, frameHeaderLen+MaxFrameSize+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized write gave %v", err)
	}
	if err := WriteFrame(&buf, 1, Frame("short")); !errors.Is(err, ErrMalformed) {
		t.Fatalf("frame without header room gave %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes of a refused frame were written", buf.Len())
	}
}

// countingWriter records how the frame reached it.
type countingWriter struct {
	writes int
	first  *byte
	bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes == 1 && len(p) > 0 {
		w.first = &p[0]
	}
	return w.Buffer.Write(p)
}

// TestWriteFrameSingleWriteNoCopy: an envelope marshalled as a frame
// reaches the writer in one Write of that very buffer — header and payload
// together, so no 12-byte segment of its own on a TCP_NODELAY socket and
// nothing for a concurrent writer to land between, and no copy made to get
// the payload behind its header. The payload is byte-identical to Marshal:
// the tag rides in the header, never in the envelope.
func TestWriteFrameSingleWriteNoCopy(t *testing.T) {
	env := &Envelope{Version: ProtocolVersion, Type: MsgQuery, RequestID: "req", Payload: bytes.Repeat([]byte{0x5A}, 4096)}
	frame := env.MarshalFrame()
	var w countingWriter
	if err := WriteFrame(&w, 9, frame); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	if w.writes != 1 || w.first != &frame[0] {
		t.Fatalf("frame reached the writer in %d writes (first at %p, frame at %p); want 1 write of the frame itself", w.writes, w.first, &frame[0])
	}
	tag, payload, err := ReadFrame(&w.Buffer)
	if err != nil || tag != 9 {
		t.Fatalf("ReadFrame = tag %d, %v", tag, err)
	}
	if !bytes.Equal(payload, env.Marshal()) {
		t.Fatal("frame payload differs from Envelope.Marshal")
	}
	// The same frame goes out again under another tag (a resend).
	if err := WriteFrame(&w, 10, frame); err != nil {
		t.Fatalf("WriteFrame again: %v", err)
	}
	if tag, again, err := ReadFrame(&w.Buffer); err != nil || tag != 10 || !bytes.Equal(again, payload) {
		t.Fatalf("rewritten frame = tag %d, %d bytes, %v", tag, len(again), err)
	}
}
