package wire

// Fuzz coverage for the decoder: arbitrary bytes must never panic or
// over-read, and every value the encoder produces must round-trip. The
// decoder is the first code that touches attacker-controlled bytes
// (signatures are checked over wire-encoded content), so hostile-input
// robustness is a safety property, not a nicety.

import (
	"bytes"
	"testing"
)

func FuzzDecoderNeverPanics(f *testing.F) {
	// Seed with structurally interesting prefixes.
	var e Encoder
	e.Uint64(7)
	e.String("seed")
	e.VarBytes([]byte{1, 2, 3})
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{0x80}, 64))
	f.Add([]byte{0x80, 0x00})
	f.Add(append(bytes.Repeat([]byte{0xff}, 10), 0x01))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		// Exercise every accessor in a fixed pattern; none may panic.
		_ = d.Uint64()
		_ = d.Uint32()
		_ = d.Byte()
		_ = d.Bool()
		_ = d.Bytes32()
		_ = d.VarBytes()
		_ = d.String()
		_ = d.ListLen()
		_ = d.Int64()
		_ = d.Uvarint()
		_ = d.Err()
		_ = d.Finish()

		// A varint the decoder takes re-encodes to exactly the bytes it took.
		v := NewDecoder(data)
		if u := v.Uvarint(); v.Err() == nil {
			var e Encoder
			e.Uvarint(u)
			if !bytes.Equal(e.Bytes(), data[:v.off]) {
				t.Fatalf("varint %x decodes to %d, which encodes as %x", data[:v.off], u, e.Bytes())
			}
		}
	})
}

func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(1), "a", []byte{0x01}, true)
	f.Add(uint64(0), "", []byte{}, false)
	f.Add(^uint64(0), "héllo wörld", bytes.Repeat([]byte{0xAB}, 300), true)

	f.Fuzz(func(t *testing.T, u uint64, s string, b []byte, flag bool) {
		var e Encoder
		e.Uint64(u)
		e.Uvarint(u)
		e.String(s)
		e.VarBytes(b)
		e.Bool(flag)
		listLen := len(b)
		if listLen > maxListLen {
			listLen = maxListLen // ListLen panics above the limit by design
		}
		e.ListLen(listLen)

		d := NewDecoder(e.Bytes())
		if got := d.Uint64(); got != u {
			t.Fatalf("uint64 %d != %d", got, u)
		}
		if got := d.Uvarint(); got != u {
			t.Fatalf("uvarint %d != %d", got, u)
		}
		if got := d.String(); got != s {
			t.Fatalf("string %q != %q", got, s)
		}
		if got := d.VarBytes(); !bytes.Equal(got, b) {
			t.Fatalf("bytes %x != %x", got, b)
		}
		if got := d.Bool(); got != flag {
			t.Fatalf("bool %v != %v", got, flag)
		}
		if got := d.ListLen(); got != listLen {
			t.Fatalf("listlen %d != %d", got, listLen)
		}
		if err := d.Finish(); err != nil {
			t.Fatalf("finish: %v", err)
		}
	})
}
