package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"runtime"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []struct {
		tag uint64
		env *Envelope
	}{
		{1, &Envelope{RequestID: "first"}},
		{0, &Envelope{}},                            // an empty payload
		{1, &Envelope{RequestID: "same tag again"}}, // tags are the caller's business
		{^uint64(0), &Envelope{Payload: bytes.Repeat([]byte{0xAB}, 10_000)}},
		{2, &Envelope{Payload: bytes.Repeat([]byte{0xCD}, maxPooledFrame)}}, // past the pooled size
	}
	for _, f := range frames {
		if err := WriteEnvelope(&buf, f.tag, f.env); err != nil {
			t.Fatalf("WriteEnvelope: %v", err)
		}
	}
	r := bufio.NewReader(&buf)
	for i, want := range frames {
		tag, got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if tag != want.tag || !bytes.Equal(got, want.env.Marshal()) {
			t.Fatalf("frame %d = tag %d, %d bytes; want tag %d, %d bytes", i, tag, len(got), want.tag, len(want.env.Marshal()))
		}
	}
	if _, _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("expected io.EOF at end, got %v", err)
	}
}

// TestFrameHeaderKnownAnswer pins the 12 header bytes WriteEnvelope puts
// in front of an envelope: the big-endian payload length with bit 31 set,
// then the big-endian 64-bit tag. Every relay on the wire parses these
// bytes, so a change here is a protocol change, never a refactor side
// effect. The payload is a bare ping (version 1, type 4).
func TestFrameHeaderKnownAnswer(t *testing.T) {
	const (
		tag       = 0x0102030405060708
		payload   = "\x08\x01\x10\x04"
		wantFrame = "80000004" + "0102030405060708" + "08011004"
	)
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, tag, &Envelope{Version: ProtocolVersion, Type: MsgPing}); err != nil {
		t.Fatalf("WriteEnvelope: %v", err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != wantFrame {
		t.Fatalf("frame bytes = %s, want %s", got, wantFrame)
	}
	gotTag, gotPayload, err := ReadFrame(bufio.NewReader(&buf))
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
	if err := WriteEnvelope(&buf, 7, &Envelope{RequestID: "full payload"}); err != nil {
		t.Fatalf("WriteEnvelope: %v", err)
	}
	whole := buf.Bytes()
	for cut := 0; cut < len(whole); cut++ {
		_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(whole[:cut])))
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

// TestReadFrameGrowsAsBytesArrive: a payload longer than the reader's
// buffer arrives whole in a buffer exactly its size, and a stream cut at
// any of the buffer's growth boundaries is an unexpected EOF, not a clean
// one.
func TestReadFrameGrowsAsBytesArrive(t *testing.T) {
	const kib = 1 << 10
	env := &Envelope{Payload: make([]byte, 5*kib)} // past bufio's 4 KiB default
	for i := range env.Payload {
		env.Payload[i] = byte(i * 7)
	}
	payload := env.Marshal()
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, 3, env); err != nil {
		t.Fatalf("WriteEnvelope: %v", err)
	}
	whole := buf.Bytes()
	tag, got, err := ReadFrame(bufio.NewReader(bytes.NewReader(whole)))
	if err != nil || tag != 3 || !bytes.Equal(got, payload) || cap(got) != len(payload) {
		t.Fatalf("ReadFrame = tag %d, %d bytes in a buffer of %d, %v", tag, len(got), cap(got), err)
	}
	for _, sent := range []int{0, kib, 2 * kib, 4 * kib, 5 * kib} {
		if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(whole[:frameHeaderLen+sent]))); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("stream cut after %d payload bytes gave %v, want io.ErrUnexpectedEOF", sent, err)
		}
	}
}

// TestReadFrameOneAllocationPerFrame: a frame that fits the reader's
// buffer takes one payload allocation of exactly its length, also when
// frames arrive back to back and one straddles what the reader has
// buffered. The payload is a served reply's size. The header is peeked in
// the reader's buffer and allocates nothing.
func TestReadFrameOneAllocationPerFrame(t *testing.T) {
	env := &Envelope{Version: ProtocolVersion, Type: MsgQueryResponse, RequestID: "req-000017", Payload: make([]byte, 2389)}
	want := env.Marshal()
	const frames = 200
	var stream bytes.Buffer
	for range frames {
		if err := WriteEnvelope(&stream, 7, env); err != nil {
			t.Fatalf("WriteEnvelope: %v", err)
		}
	}
	// Mallocs counted over every frame: AllocsPerRun would round an
	// extra allocation on some frames down.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := bufio.NewReader(&stream)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range frames {
		_, payload, err := ReadFrame(r)
		if err != nil || !bytes.Equal(payload, want) || cap(payload) != len(want) {
			t.Fatalf("frame %d: %d bytes in a buffer of %d (%v), want the %d of the envelope", i, len(payload), cap(payload), err, len(want))
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != frames {
		t.Fatalf("ReadFrame of %d back-to-back %d-byte frames: %d allocations, want %d", frames, len(want), got, frames)
	}
}

func TestReadFrameOversized(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr))); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized frame gave %v", err)
	}
}

// TestReadFrameUntagged: a bare 4-byte length prefix (the framing before
// tags) is refused from its first word, without waiting for more bytes.
func TestReadFrameUntagged(t *testing.T) {
	legacy := []byte{0x00, 0x00, 0x00, 0x05, 'h', 'e', 'l', 'l', 'o'}
	for _, stream := range [][]byte{legacy, legacy[:4]} {
		if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(stream))); !errors.Is(err, ErrUntaggedFrame) {
			t.Fatalf("untagged frame gave %v", err)
		}
	}
}

func TestWriteFrameOversized(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, 1, &Envelope{Payload: make([]byte, MaxFrameSize)}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized write gave %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes of a refused frame were written", buf.Len())
	}
}

// countingWriter records how frames reached it.
type countingWriter struct {
	writes []int // the length of each Write
	bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// TestWriteFrameSingleWriteNoCopy: an envelope reaches the writer in one
// Write — header and encoding together, so no 12-byte segment of its own on
// a TCP_NODELAY socket and nothing for a concurrent writer to land between.
// The payload is byte-identical to Marshal: the tag rides in the header,
// never in the envelope, so a resend under another tag is the same bytes.
func TestWriteFrameSingleWriteNoCopy(t *testing.T) {
	env := &Envelope{Version: ProtocolVersion, Type: MsgQuery, RequestID: "req", Payload: bytes.Repeat([]byte{0x5A}, 4096)}
	want := env.Marshal()
	var w countingWriter
	for _, tag := range []uint64{9, 10} { // the second is a resend
		if err := WriteEnvelope(&w, tag, env); err != nil {
			t.Fatalf("WriteEnvelope: %v", err)
		}
		if n := len(w.writes); n != 1 || w.writes[0] != frameHeaderLen+len(want) {
			t.Fatalf("frame reached the writer as writes of %v bytes; want one of %d", w.writes, frameHeaderLen+len(want))
		}
		w.writes = w.writes[:0]
		got, payload, err := ReadFrame(bufio.NewReader(&w.Buffer))
		if err != nil || got != tag || !bytes.Equal(payload, want) {
			t.Fatalf("ReadFrame = tag %d, %d bytes, %v; want tag %d and the bytes of Envelope.Marshal", got, len(payload), err, tag)
		}
	}
}

// TestWriteEnvelopeAllocations is the tripwire of the pooled frame
// buffers: a warm WriteEnvelope allocates nothing, and what it allocates
// per frame does not grow with the envelope — a 32 KiB payload costs what
// a 1 KiB one does, up to a few pool misses.
func TestWriteEnvelopeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the pooled frame buffers' counts do not hold under the race detector")
	}
	const frames = 1000
	perFrame := make(map[int]float64)
	for _, n := range []int{1 << 10, 32 << 10} {
		env := &Envelope{Version: ProtocolVersion, Type: MsgQueryResponse, RequestID: "req-000017", Payload: make([]byte, n)}
		write := func() { _ = WriteEnvelope(io.Discard, 7, env) }
		if got := testing.AllocsPerRun(100, write); got != 0 {
			t.Errorf("WriteEnvelope of a %d-byte payload: %v allocations, want 0", n, got)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range frames {
			write()
		}
		runtime.ReadMemStats(&after)
		perFrame[n] = float64(after.TotalAlloc-before.TotalAlloc) / frames
	}
	// A pool miss per P the loop ran on, and two more for a collection that
	// emptied the pool, each a fresh buffer for the larger frame.
	drops := runtime.GOMAXPROCS(0) + 2
	if slack := float64(drops*(frameHeaderLen+32<<10+16)) / frames; perFrame[32<<10] > perFrame[1<<10]+slack {
		t.Fatalf("bytes allocated per frame: %.1f at 32 KiB, %.1f at 1 KiB; want equal within %.0f", perFrame[32<<10], perFrame[1<<10], slack)
	}
}
