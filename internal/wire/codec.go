package wire

import "fmt"

// Codec is one direction of a field walk. A wire type states its layout once,
// as a method that visits its fields in wire order and hands a pointer to each
// to a Codec primitive; the Codec writes the field when it holds an Encoder,
// fills it when it holds a Decoder, and adds the bytes writing it would take
// when it holds a counter (Measure). All three directions are that one
// sequence of calls, so a field cannot be read in another order, width or
// position than it was written, and no size is stated apart from its layout.
//
// A walk may branch on Decoding only to allocate, to bound a count or to Fail,
// and on Measuring only to measure a nested frame in place instead of building
// it; it must not otherwise make the primitive sequence depend on the
// direction. Decoding walks fill a zero value. A Codec is three pointers, one
// of them set, and is passed by value.
type Codec struct {
	e *Encoder
	d *Decoder
	n *int
}

// Codec returns the writing direction of a walk, appending to e.
func (e *Encoder) Codec() Codec { return Codec{e: e} }

// Codec returns the reading direction of a walk, consuming d. Errors latch in
// d: check d.Finish (or d.Err) once after the walk.
func (d *Decoder) Codec() Codec { return Codec{d: d} }

// Measure returns the measuring direction of a walk: it writes nothing and
// adds to *n the number of bytes the writing walk appends. Fail panics on it,
// as on a writing walk.
func Measure(n *int) Codec { return Codec{n: n} }

// Encode returns the bytes one walk writes: Encode(v.Wire).
func Encode(walk func(Codec)) []byte {
	var e Encoder
	walk(e.Codec())
	return e.Bytes()
}

// Decoding reports whether the walk is filling fields from input.
func (c Codec) Decoding() bool { return c.d != nil }

// Measuring reports whether the walk is counting bytes (Measure).
func (c Codec) Measuring() bool { return c.n != nil }

// Failed reports whether a decoding walk has already latched an error: loops
// over a count taken from the input stop on it.
func (c Codec) Failed() bool { return c.d != nil && c.d.err != nil }

// Fail latches err on a decoding walk (well-framed bytes the type must still
// refuse: a count over its bound, a nested frame of the wrong class). On an
// encoding or measuring walk the same condition is an engine bug, and panics
// where it is.
func (c Codec) Fail(err error) {
	if c.d == nil {
		panic(err)
	}
	c.d.Fail(err)
}

// count adds k bytes to a measuring walk's total and reports whether the walk
// is measuring; the primitives write only when it is not.
func (c Codec) count(k int) bool {
	if c.n != nil {
		*c.n += k
	}
	return c.n != nil
}

// Add counts k bytes on a measuring walk: the fixed part of a nested frame
// (its length prefix and header) whose body the walk then measures in place.
// It has no bytes to write or read, so in the other directions it panics.
func (c Codec) Add(k int) {
	if !c.count(k) {
		panic("wire: Add on a walk that is not measuring")
	}
}

// Uint64 walks a big-endian uint64.
func (c Codec) Uint64(v *uint64) {
	if c.d != nil {
		*v = c.d.Uint64()
	} else if !c.count(8) {
		c.e.Uint64(*v)
	}
}

// Uint32 walks a big-endian uint32.
func (c Codec) Uint32(v *uint32) {
	if c.d != nil {
		*v = c.d.Uint32()
	} else if !c.count(4) {
		c.e.Uint32(*v)
	}
}

// Uvarint walks a uint64 as a minimal varint (Encoder.Uvarint).
func (c Codec) Uvarint(v *uint64) {
	if c.d != nil {
		*v = c.d.Uvarint()
	} else if !c.count(UvarintLen(*v)) {
		c.e.Uvarint(*v)
	}
}

// Int walks an int as a big-endian two's-complement int64.
func (c Codec) Int(v *int) {
	if c.d != nil {
		*v = int(c.d.Int64())
	} else if !c.count(8) {
		c.e.Int64(int64(*v))
	}
}

// Byte walks a single byte.
func (c Codec) Byte(v *byte) {
	if c.d != nil {
		*v = c.d.Byte()
	} else if !c.count(1) {
		c.e.Byte(*v)
	}
}

// Bool walks a boolean as one byte; any nonzero byte reads as true.
func (c Codec) Bool(v *bool) {
	if c.d != nil {
		*v = c.d.Bool()
	} else if !c.count(1) {
		c.e.Bool(*v)
	}
}

// VarBytes walks a length-prefixed byte string. A decoded value is a copy of
// the input, and is non-nil even when empty.
func (c Codec) VarBytes(v *[]byte) {
	if c.d != nil {
		*v = c.d.VarBytes()
	} else if !c.count(4 + len(*v)) {
		c.e.VarBytes(*v)
	}
}

// View walks a length-prefixed byte string as VarBytes does, but a decoded
// value aliases the input (Decoder.VarBytesView): read-only, and holding the
// whole input alive. It serves the hot-path readers that copy only what they
// keep.
func (c Codec) View(v *[]byte) {
	if c.d != nil {
		*v = c.d.VarBytesView()
	} else if !c.count(4 + len(*v)) {
		c.e.VarBytes(*v)
	}
}

// String walks a length-prefixed string.
func (c Codec) String(v *string) {
	if c.d != nil {
		*v = c.d.String()
	} else if !c.count(4 + len(*v)) {
		c.e.String(*v)
	}
}

// U64 walks a named uint64 type (node and group IDs) as Uint64 does.
func U64[T ~uint64](c Codec, v *T) {
	if c.d != nil {
		*v = T(c.d.Uint64())
	} else if !c.count(8) {
		c.e.Uint64(uint64(*v))
	}
}

// B8 walks a named one-byte type (kinds, purposes, directions) as Byte does.
func B8[T ~uint8](c Codec, v *T) {
	if c.d != nil {
		*v = T(c.d.Byte())
	} else if !c.count(1) {
		c.e.Byte(byte(*v))
	}
}

// Bytes32 walks a fixed 32-byte array (a digest) without a length prefix.
func Bytes32[T ~[32]byte](c Codec, v *T) {
	if c.d != nil {
		*v = T(c.d.Bytes32())
	} else if !c.count(32) {
		c.e.Bytes32([32]byte(*v))
	}
}

// List walks a ListLen count followed by the elements, each walked by each —
// for a wire type, its method expression: List(c, &p.Chain, (*StepCert).Wire).
// It decodes through decodeList.
func List[T any](c Codec, s *[]T, each func(*T, Codec)) {
	if c.d == nil {
		if !c.count(4) {
			c.e.ListLen(len(*s))
		}
		for i := range *s {
			each(&(*s)[i], c)
		}
		return
	}
	decodeList(c.d, s, func(v *T) { each(v, c) })
}

// Digests walks a list of 32-byte arrays as List(c, s, each) does with each
// walking Bytes32, in the same bytes, but calls no walker: a walk made of
// primitives alone keeps a measuring counter (Measure) on its caller's stack,
// where an indirect call would move it to the heap.
func Digests[T ~[32]byte](c Codec, s *[]T) {
	if c.d == nil {
		if !c.count(4 + 32*len(*s)) {
			c.e.ListLen(len(*s))
			for _, v := range *s {
				c.e.Bytes32([32]byte(v))
			}
		}
		return
	}
	decodeList(c.d, s, func(v *T) { *v = T(c.d.Bytes32()) })
}

// BytesList walks a list of byte strings as List(c, s, each) does with each
// walking VarBytes, in the same bytes, and like Digests calls no walker.
func (c Codec) BytesList(s *[][]byte) {
	if c.d == nil {
		if !c.count(4) {
			c.e.ListLen(len(*s))
		}
		for i := range *s {
			c.VarBytes(&(*s)[i])
		}
		return
	}
	decodeList(c.d, s, func(v *[]byte) { *v = c.d.VarBytes() })
}

// decodeList is the decoding half of every list walk: it reads the ListLen
// count and fills each element in place in the slice with fill (a temporary
// would escape through the indirect call and cost an allocation per element).
// It grows the slice only as input is consumed, so a hostile count allocates
// nothing the frame does not pay for, and leaves an empty list nil.
func decodeList[T any](d *Decoder, s *[]T, fill func(*T)) {
	n := d.ListLen()
	*s = nil
	for i := 0; i < n && d.err == nil; i++ {
		var zero T
		*s = append(*s, zero)
		fill(&(*s)[i])
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
