package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	var e Encoder
	e.Uint64(0xdeadbeefcafef00d)
	e.Uint32(42)
	e.Int64(-17)
	e.Byte(0xab)
	e.Bool(true)
	e.Bool(false)

	d := NewDecoder(e.Bytes())
	if got := d.Uint64(); got != 0xdeadbeefcafef00d {
		t.Errorf("Uint64 = %x", got)
	}
	if got := d.Uint32(); got != 42 {
		t.Errorf("Uint32 = %d", got)
	}
	if got := d.Int64(); got != -17 {
		t.Errorf("Int64 = %d", got)
	}
	if got := d.Byte(); got != 0xab {
		t.Errorf("Byte = %x", got)
	}
	if got := d.Bool(); !got {
		t.Error("Bool #1 = false, want true")
	}
	if got := d.Bool(); got {
		t.Error("Bool #2 = true, want false")
	}
	if err := d.Finish(); err != nil {
		t.Errorf("Finish: %v", err)
	}
}

func TestRoundTripBytes(t *testing.T) {
	var e Encoder
	e.VarBytes([]byte("hello"))
	e.VarBytes(nil)
	e.String("world")
	var fixed [32]byte
	fixed[0], fixed[31] = 1, 2
	e.Bytes32(fixed)

	d := NewDecoder(e.Bytes())
	if got := d.VarBytes(); !bytes.Equal(got, []byte("hello")) {
		t.Errorf("VarBytes = %q", got)
	}
	if got := d.VarBytes(); len(got) != 0 {
		t.Errorf("empty VarBytes = %q", got)
	}
	if got := d.String(); got != "world" {
		t.Errorf("String = %q", got)
	}
	if got := d.Bytes32(); got != fixed {
		t.Errorf("Bytes32 = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Errorf("Finish: %v", err)
	}
}

// TestUvarint: values at the byte-length boundaries round trip in the
// length UvarintLen names, and the decoder refuses a non-minimal encoding, one
// longer than 10 bytes, one over 64 bits and a truncated one.
func TestUvarint(t *testing.T) {
	for _, c := range []struct {
		v uint64
		n int
	}{{0, 1}, {127, 1}, {128, 2}, {1 << 63, 10}, {^uint64(0), 10}} {
		var e Encoder
		e.Uvarint(c.v)
		if len(e.Bytes()) != c.n || UvarintLen(c.v) != c.n {
			t.Errorf("Uvarint(%d) is %d bytes, UvarintLen says %d; want %d", c.v, len(e.Bytes()), UvarintLen(c.v), c.n)
		}
		d := NewDecoder(e.Bytes())
		if got := d.Uvarint(); got != c.v || d.Finish() != nil {
			t.Errorf("Uvarint(%d) decodes to %d (%v)", c.v, got, d.Finish())
		}
	}
	tenContinued := bytes.Repeat([]byte{0xff}, 10)
	for _, c := range []struct {
		name string
		b    []byte
	}{
		{"non-minimal", []byte{0x80, 0x00}},
		{"non-minimal, longer", []byte{0xff, 0x80, 0x00}},
		{"11 bytes", append(tenContinued, 0x01)},
		{"over 64 bits", append(bytes.Repeat([]byte{0xff}, 9), 0x02)},
		{"truncated", []byte{0x80}},
		{"empty", nil},
	} {
		d := NewDecoder(c.b)
		if got := d.Uvarint(); got != 0 || d.Err() == nil {
			t.Errorf("%s: %x decodes to %d, err %v; want a refusal", c.name, c.b, got, d.Err())
		}
	}
	d := NewDecoder([]byte{0x80})
	d.Uvarint()
	if !errors.Is(d.Err(), ErrShortBuffer) {
		t.Errorf("truncated varint: %v, want ErrShortBuffer", d.Err())
	}
}

func TestShortBuffer(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3})
	_ = d.Uint64()
	if !errors.Is(d.Err(), ErrShortBuffer) {
		t.Errorf("Err = %v, want ErrShortBuffer", d.Err())
	}
	// Subsequent reads keep failing without panicking.
	_ = d.VarBytes()
	_ = d.Bytes32()
	if !errors.Is(d.Finish(), ErrShortBuffer) {
		t.Errorf("Finish = %v, want ErrShortBuffer", d.Finish())
	}
}

// TestDecoderFailAndReset: Fail latches like a read error (the first error
// wins, later reads return zero values), and Reset starts over on new input.
func TestDecoderFailAndReset(t *testing.T) {
	refused := errors.New("refused")
	d := NewDecoder([]byte{0, 0, 0, 7})
	d.Fail(refused)
	d.Fail(errors.New("later"))
	if got := d.Uint32(); got != 0 || !errors.Is(d.Finish(), refused) {
		t.Errorf("after Fail: read %d, Finish = %v; want 0 and the first error", got, d.Finish())
	}
	short := NewDecoder(nil)
	_ = short.Byte()
	short.Fail(refused)
	if !errors.Is(short.Err(), ErrShortBuffer) {
		t.Errorf("Fail replaced an earlier read error: %v", short.Err())
	}
	d.Reset([]byte{0, 0, 0, 9})
	if got := d.Uint32(); got != 9 || d.Finish() != nil {
		t.Errorf("after Reset: read %d, Finish = %v; want 9 and no error", got, d.Finish())
	}
}

func TestTrailingBytes(t *testing.T) {
	var e Encoder
	e.Uint32(1)
	e.Uint32(2)
	d := NewDecoder(e.Bytes())
	_ = d.Uint32()
	if !errors.Is(d.Finish(), ErrTrailingBytes) {
		t.Errorf("Finish = %v, want ErrTrailingBytes", d.Finish())
	}
}

func TestHostileLength(t *testing.T) {
	var e Encoder
	e.Uint32(1 << 30) // declared length far beyond the buffer and the cap
	d := NewDecoder(e.Bytes())
	if got := d.VarBytes(); got != nil {
		t.Errorf("VarBytes = %v, want nil", got)
	}
	if d.Err() == nil {
		t.Error("expected error for hostile length")
	}
}

func TestVarBytesCopies(t *testing.T) {
	var e Encoder
	e.VarBytes([]byte{1, 2, 3})
	buf := e.Bytes()
	d := NewDecoder(buf)
	got := d.VarBytes()
	buf[4] = 99 // mutate the underlying encoded byte
	if got[0] != 1 {
		t.Error("VarBytes result aliases the input buffer")
	}
}

type pair struct {
	A uint64
	B []byte
}

func (p *pair) Wire(c Codec) {
	c.Uint64(&p.A)
	c.VarBytes(&p.B)
}

func TestEncodeHelper(t *testing.T) {
	p := pair{A: 7, B: []byte{1}}
	b := Encode(p.Wire)
	d := NewDecoder(b)
	if d.Uint64() != 7 {
		t.Error("A mismatch")
	}
	if got := d.VarBytes(); len(got) != 1 || got[0] != 1 {
		t.Error("B mismatch")
	}
	if err := d.Finish(); err != nil {
		t.Error(err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(a uint64, b uint32, s string, raw []byte, flag bool) bool {
		var e Encoder
		e.Uint64(a)
		e.Uint32(b)
		e.String(s)
		e.VarBytes(raw)
		e.Bool(flag)
		d := NewDecoder(e.Bytes())
		okA := d.Uint64() == a
		okB := d.Uint32() == b
		okS := d.String() == s
		okR := bytes.Equal(d.VarBytes(), raw)
		okF := d.Bool() == flag
		return okA && okB && okS && okR && okF && d.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	enc := func() []byte {
		var e Encoder
		e.Uint64(5)
		e.String("abc")
		return e.Bytes()
	}
	if !bytes.Equal(enc(), enc()) {
		t.Error("encoding is not deterministic")
	}
}

// TestEncoderEnforcesMaxLen pins the encode/decode symmetry fix: the encoder
// must refuse (panic on) lengths the decoder is guaranteed to reject, instead
// of silently emitting an undecodable stream — and, for >4 GiB inputs,
// silently truncating the uint32 length prefix.
func TestEncoderEnforcesMaxLen(t *testing.T) {
	oversized := make([]byte, maxLen+1)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted a value above maxLen", name)
			}
		}()
		fn()
	}
	mustPanic("VarBytes", func() {
		var e Encoder
		e.VarBytes(oversized)
	})
	mustPanic("String", func() {
		var e Encoder
		e.String(string(oversized))
	})
	mustPanic("ListLen", func() {
		var e Encoder
		e.ListLen(maxListLen + 1)
	})
	mustPanic("ListLen negative", func() {
		var e Encoder
		e.ListLen(-1)
	})
}

func TestListLenRoundTrip(t *testing.T) {
	var e Encoder
	e.ListLen(0)
	e.ListLen(3)
	e.ListLen(maxListLen)

	d := NewDecoder(e.Bytes())
	for _, want := range []int{0, 3, maxListLen} {
		if got := d.ListLen(); got != want {
			t.Errorf("ListLen = %d, want %d", got, want)
		}
	}
	if err := d.Finish(); err != nil {
		t.Errorf("Finish: %v", err)
	}
}

func TestListLenDecodeRejectsOversized(t *testing.T) {
	var e Encoder
	e.Uint32(maxListLen + 1) // forge a prefix the encoder would refuse
	d := NewDecoder(e.Bytes())
	if got := d.ListLen(); got != 0 {
		t.Errorf("oversized ListLen = %d, want 0", got)
	}
	if d.Err() == nil {
		t.Error("oversized list length must set the decoder error")
	}
}

func TestVarBytesViewAliasesInput(t *testing.T) {
	var e Encoder
	e.VarBytes([]byte("alias-me"))
	buf := e.Bytes()

	d := NewDecoder(buf)
	v := d.VarBytesView()
	if string(v) != "alias-me" {
		t.Fatalf("VarBytesView = %q", v)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	// The view must alias the input buffer (that is its whole point).
	buf[4] ^= 0xFF
	if v[0] == 'a' {
		t.Error("VarBytesView copied the input; it must alias")
	}
}

func TestVarBytesViewHostileLength(t *testing.T) {
	var e Encoder
	e.Uint32(maxLen + 1)
	d := NewDecoder(e.Bytes())
	if v := d.VarBytesView(); v != nil {
		t.Errorf("oversized VarBytesView = %x, want nil", v)
	}
	if d.Err() == nil {
		t.Error("oversized view length must set the decoder error")
	}

	var e2 Encoder
	e2.Uint32(8) // promises 8 bytes, delivers none
	d2 := NewDecoder(e2.Bytes())
	if v := d2.VarBytesView(); v != nil {
		t.Errorf("truncated VarBytesView = %x, want nil", v)
	}
	if d2.Err() == nil {
		t.Error("truncated view must set the decoder error")
	}
}

// TestEncoderPoolDetach: Frame's result is an exact-size copy the caller
// owns. Frames built after it, through the same pooled encoder, neither see
// its bytes nor overwrite them.
func TestEncoderPoolDetach(t *testing.T) {
	first := Frame(func(e *Encoder) {
		if e.Len() != 0 {
			t.Fatal("Frame wrote into a dirty encoder")
		}
		e.String("pooled")
	})
	if len(first) != cap(first) {
		t.Errorf("Frame returned len %d cap %d, want an exact-size copy", len(first), cap(first))
	}
	for i := 0; i < 8; i++ {
		Frame(func(e *Encoder) {
			if e.Len() != 0 {
				t.Fatal("Frame wrote into a dirty encoder")
			}
			e.String("overwrite-the-shared-buffer")
		})
	}
	if got := NewDecoder(first).String(); got != "pooled" {
		t.Errorf("framed bytes = %q, want %q (aliased the pooled buffer?)", got, "pooled")
	}
}

// TestPutEncoderDropsOversizedBuffers: a frame over maxPooledEncoderBytes
// comes out whole, and its buffer does not go back into the pool.
func TestPutEncoderDropsOversizedBuffers(t *testing.T) {
	big := make([]byte, maxPooledEncoderBytes+1)
	out := Frame(func(e *Encoder) { e.VarBytes(big) })
	if got := NewDecoder(out).VarBytesView(); len(got) != len(big) {
		t.Fatalf("oversized frame carried %d bytes, want %d", len(got), len(big))
	}
	var e Encoder
	e.VarBytes(big)
	putEncoder(&e)
	if e.buf != nil {
		t.Errorf("putEncoder kept a %d-byte buffer, cap is %d", cap(e.buf), maxPooledEncoderBytes)
	}
	small := Frame(func(e *Encoder) { e.Byte(1) })
	if len(small) != 1 {
		t.Errorf("frame after an oversized one = %x, want one byte", small)
	}
}
