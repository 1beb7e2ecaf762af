package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeScalars(t *testing.T) {
	e := NewEncoder(0)
	e.Uint(1, 42)
	e.Uint(2, 0) // omitted
	e.Bool(3, true)
	e.Bool(4, false) // omitted
	e.String(5, "hello")
	e.BytesField(6, []byte{0xDE, 0xAD})

	d := NewDecoder(e.Bytes())
	seen := map[int]bool{}
	for {
		field, ok, err := d.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
		seen[field] = true
		switch field {
		case 1:
			v, err := d.Uint()
			if err != nil || v != 42 {
				t.Fatalf("field 1 = %d, %v", v, err)
			}
		case 3:
			v, err := d.Bool()
			if err != nil || !v {
				t.Fatalf("field 3 = %v, %v", v, err)
			}
		case 5:
			v, err := d.String()
			if err != nil || v != "hello" {
				t.Fatalf("field 5 = %q, %v", v, err)
			}
		case 6:
			v, err := d.Bytes()
			if err != nil || !bytes.Equal(v, []byte{0xDE, 0xAD}) {
				t.Fatalf("field 6 = %x, %v", v, err)
			}
		default:
			t.Fatalf("unexpected field %d", field)
		}
	}
	if seen[2] || seen[4] {
		t.Fatal("zero-valued fields were encoded")
	}
	for _, f := range []int{1, 3, 5, 6} {
		if !seen[f] {
			t.Fatalf("field %d missing", f)
		}
	}
}

func TestDecoderSkipUnknownFields(t *testing.T) {
	e := NewEncoder(0)
	e.Uint(1, 7)
	e.String(99, "future field")
	e.BytesField(100, []byte("more future data"))
	e.Uint(2, 9)

	d := NewDecoder(e.Bytes())
	var got1, got2 uint64
	for {
		field, ok, err := d.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
		switch field {
		case 1:
			got1, _ = d.Uint()
		case 2:
			got2, _ = d.Uint()
		default:
			if err := d.Skip(); err != nil {
				t.Fatalf("Skip: %v", err)
			}
		}
	}
	if got1 != 7 || got2 != 9 {
		t.Fatalf("got1=%d got2=%d", got1, got2)
	}
}

func TestDecoderTruncated(t *testing.T) {
	e := NewEncoder(0)
	e.BytesField(1, make([]byte, 100))
	full := e.Bytes()
	for _, cut := range []int{1, 2, 50, 101} {
		d := NewDecoder(full[:cut])
		_, ok, err := d.Next()
		if err != nil {
			continue // malformed key is an acceptable failure mode
		}
		if !ok {
			continue
		}
		if _, err := d.Bytes(); err == nil {
			t.Fatalf("cut=%d: Bytes succeeded on truncated input", cut)
		}
	}
}

func TestDecoderWrongWireType(t *testing.T) {
	e := NewEncoder(0)
	e.Uint(1, 5)
	d := NewDecoder(e.Bytes())
	if _, ok, err := d.Next(); !ok || err != nil {
		t.Fatalf("Next: ok=%v err=%v", ok, err)
	}
	if _, err := d.Bytes(); err == nil {
		t.Fatal("Bytes succeeded on a varint field")
	}

	e2 := NewEncoder(0)
	e2.String(1, "x")
	d2 := NewDecoder(e2.Bytes())
	if _, ok, err := d2.Next(); !ok || err != nil {
		t.Fatalf("Next: ok=%v err=%v", ok, err)
	}
	if _, err := d2.Uint(); err == nil {
		t.Fatal("Uint succeeded on a bytes field")
	}
}

func TestDecoderFieldZeroRejected(t *testing.T) {
	// key varint 0x00 = field 0, wiretype 0
	d := NewDecoder([]byte{0x00})
	if _, _, err := d.Next(); err == nil {
		t.Fatal("field number 0 accepted")
	}
}

func TestDecoderOversizedLength(t *testing.T) {
	// field 1, bytes wire type, declared length 2^40
	buf := []byte{0x0A, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	d := NewDecoder(buf)
	if _, ok, err := d.Next(); !ok || err != nil {
		t.Fatalf("Next: ok=%v err=%v", ok, err)
	}
	if _, err := d.Bytes(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestDecoderGarbage(t *testing.T) {
	// A long run of continuation bytes never terminates a varint.
	garbage := bytes.Repeat([]byte{0xFF}, 16)
	d := NewDecoder(garbage)
	if _, _, err := d.Next(); err == nil {
		// Next may parse a huge key; then any read should fail.
		if err2 := d.Skip(); err2 == nil {
			t.Fatal("garbage decoded cleanly")
		}
	}
}

func TestEmptyMessagePreserved(t *testing.T) {
	e := NewEncoder(0)
	e.Message(1, nil) // empty embedded message must still appear
	d := NewDecoder(e.Bytes())
	field, ok, err := d.Next()
	if err != nil || !ok || field != 1 {
		t.Fatalf("Next: field=%d ok=%v err=%v", field, ok, err)
	}
	b, err := d.Bytes()
	if err != nil || len(b) != 0 {
		t.Fatalf("Bytes: %x, %v", b, err)
	}
}

// TestUintRoundTripProperty checks varint round-trips for arbitrary values.
func TestUintRoundTripProperty(t *testing.T) {
	prop := func(v uint64) bool {
		e := NewEncoder(0)
		e.Uint(1, v)
		if v == 0 {
			return len(e.Bytes()) == 0
		}
		d := NewDecoder(e.Bytes())
		_, ok, err := d.Next()
		if !ok || err != nil {
			return false
		}
		got, err := d.Uint()
		return err == nil && got == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBytesRoundTripProperty checks byte-field round-trips for arbitrary
// payloads.
func TestBytesRoundTripProperty(t *testing.T) {
	prop := func(payload []byte) bool {
		e := NewEncoder(0)
		e.Message(1, payload)
		d := NewDecoder(e.Bytes())
		_, ok, err := d.Next()
		if !ok || err != nil {
			return false
		}
		got, err := d.Bytes()
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeSmallMessage(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEncoder(64)
		e.Uint(1, 12345)
		e.String(2, "we-trade")
		e.BytesField(3, []byte("payload-bytes"))
		_ = e.Bytes()
	}
}

func BenchmarkDecodeSmallMessage(b *testing.B) {
	e := NewEncoder(64)
	e.Uint(1, 12345)
	e.String(2, "we-trade")
	e.BytesField(3, []byte("payload-bytes"))
	buf := e.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(buf)
		for {
			_, ok, err := d.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			if err := d.Skip(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
