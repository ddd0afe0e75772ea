package wire

import "fmt"

// Codec is one direction of a field walk. A wire type states its layout once,
// as a method that visits its fields in wire order and hands a pointer to each
// to a Codec primitive; the Codec writes the field when it holds an Encoder
// and fills it when it holds a Decoder. Both directions are that one sequence
// of calls, so a field cannot be read in another order, width or position
// than it was written.
//
// A walk may branch on Decoding only to allocate, to bound a count or to Fail;
// it must not make the primitive sequence depend on the direction. Decoding
// walks fill a zero value. A Codec is two pointers and is passed by value.
type Codec struct {
	e *Encoder
	d *Decoder
}

// Codec returns the writing direction of a walk, appending to e.
func (e *Encoder) Codec() Codec { return Codec{e: e} }

// Codec returns the reading direction of a walk, consuming d. Errors latch in
// d: check d.Finish (or d.Err) once after the walk.
func (d *Decoder) Codec() Codec { return Codec{d: d} }

// Encode returns the bytes one walk writes: Encode(v.Wire).
func Encode(walk func(Codec)) []byte {
	var e Encoder
	walk(e.Codec())
	return e.Bytes()
}

// Decoding reports whether the walk is filling fields from input.
func (c Codec) Decoding() bool { return c.d != nil }

// Failed reports whether a decoding walk has already latched an error: loops
// over a count taken from the input stop on it.
func (c Codec) Failed() bool { return c.d != nil && c.d.err != nil }

// Fail latches err on a decoding walk (well-framed bytes the type must still
// refuse: a count over its bound, a nested frame of the wrong class). On an
// encoding walk the same condition is an engine bug, and panics where it is.
func (c Codec) Fail(err error) {
	if c.d == nil {
		panic(err)
	}
	c.d.Fail(err)
}

// Uint64 walks a big-endian uint64.
func (c Codec) Uint64(v *uint64) {
	if c.d != nil {
		*v = c.d.Uint64()
	} else {
		c.e.Uint64(*v)
	}
}

// Uvarint walks a uint64 as a minimal varint (Encoder.Uvarint).
func (c Codec) Uvarint(v *uint64) {
	if c.d != nil {
		*v = c.d.Uvarint()
	} else {
		c.e.Uvarint(*v)
	}
}

// Int walks an int as a big-endian two's-complement int64.
func (c Codec) Int(v *int) {
	if c.d != nil {
		*v = int(c.d.Int64())
	} else {
		c.e.Int64(int64(*v))
	}
}

// Byte walks a single byte.
func (c Codec) Byte(v *byte) {
	if c.d != nil {
		*v = c.d.Byte()
	} else {
		c.e.Byte(*v)
	}
}

// Bool walks a boolean as one byte; any nonzero byte reads as true.
func (c Codec) Bool(v *bool) {
	if c.d != nil {
		*v = c.d.Bool()
	} else {
		c.e.Bool(*v)
	}
}

// VarBytes walks a length-prefixed byte string. A decoded value is a copy of
// the input, and is non-nil even when empty.
func (c Codec) VarBytes(v *[]byte) {
	if c.d != nil {
		*v = c.d.VarBytes()
	} else {
		c.e.VarBytes(*v)
	}
}

// String walks a length-prefixed string.
func (c Codec) String(v *string) {
	if c.d != nil {
		*v = c.d.String()
	} else {
		c.e.String(*v)
	}
}

// U64 walks a named uint64 type (node and group IDs) as Uint64 does.
func U64[T ~uint64](c Codec, v *T) {
	if c.d != nil {
		*v = T(c.d.Uint64())
	} else {
		c.e.Uint64(uint64(*v))
	}
}

// B8 walks a named one-byte type (kinds, purposes, directions) as Byte does.
func B8[T ~uint8](c Codec, v *T) {
	if c.d != nil {
		*v = T(c.d.Byte())
	} else {
		c.e.Byte(byte(*v))
	}
}

// Bytes32 walks a fixed 32-byte array (a digest) without a length prefix.
func Bytes32[T ~[32]byte](c Codec, v *T) {
	if c.d != nil {
		*v = T(c.d.Bytes32())
	} else {
		c.e.Bytes32([32]byte(*v))
	}
}

// List walks a ListLen count followed by the elements, each walked by each —
// for a wire type, its method expression: List(c, &p.Chain, (*StepCert).Wire).
// Decoding fills every element in place in the slice (a temporary would
// escape through the indirect call and cost an allocation per element), grows
// the slice only as input is consumed, so a hostile count allocates nothing
// the frame does not pay for, and leaves an empty list nil.
func List[T any](c Codec, s *[]T, each func(*T, Codec)) {
	if c.d == nil {
		c.e.ListLen(len(*s))
		for i := range *s {
			each(&(*s)[i], c)
		}
		return
	}
	n := c.d.ListLen()
	*s = nil
	for i := 0; i < n && c.d.err == nil; i++ {
		var zero T
		*s = append(*s, zero)
		each(&(*s)[i], c)
	}
}

// Count walks a collection's element count as a Uint64 for the layouts that
// predate ListLen, and returns it. A decoded count above max fails the walk
// and returns 0; the caller allocates and walks the elements.
func (c Codec) Count(n, max int) int {
	v := uint64(n)
	c.Uint64(&v)
	if c.d != nil && c.d.err != nil {
		return 0
	}
	if v > uint64(max) {
		c.Fail(fmt.Errorf("wire: count %d exceeds limit %d", v, max))
		return 0
	}
	return int(v)
}
